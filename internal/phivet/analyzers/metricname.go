package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"phiopenssl/internal/phivet/analysis"
)

// MetricName machine-checks the telemetry registry's naming and
// registration discipline, turning PR 5's runtime duplicate-panic into a
// vet error:
//
//   - Metric names must be compile-time string constants, with no
//     exception. A computed name defeats every static check below and
//     makes grep-ability — the reason the names exist — a lie.
//   - Names follow Prometheus form (^[a-z][a-z0-9_]*$) and carry the
//     registering package's prefix ("phiserve_..." in phiserve,
//     "telemetry_..." in telemetry), so a scrape's origin is readable and
//     two packages cannot collide.
//   - Registration must happen on a construction path (init, New*/new*,
//     Instrument*, ensure*) — never per-request: registration takes the
//     registry mutex and allocates; the hot path must touch handles only.
//   - Function-backed metrics (CounterFunc/GaugeFunc) registered twice
//     with the same name and same constant label set are flagged at vet
//     time: at runtime the registry panics on the duplicate, because the
//     second function would be silently dropped — the PR 5 fleet bug
//     where unlabeled per-card Func metrics merged into one card's view.
//   - A constant `workload` label value must come from the registered
//     phiwork kind set (or "other"): dashboards select on the canonical
//     kinds, so an off-vocabulary constant is a series nothing reads.
//   - Across the whole module (standalone `phivet -repo` mode), a family
//     name may be registered from only one package.
var MetricName = &analysis.Analyzer{
	Name:      "metricname",
	Doc:       "metric names are unique constant strings with the package prefix, registered on construction paths",
	Run:       runMetricName,
	RunModule: runMetricNameModule,
}

// registerMethods maps a telemetry.Registry registration method to the
// index where variadic label pairs begin, and whether it is
// function-backed (the kind the registry refuses to register twice).
var registerMethods = map[string]struct {
	labelStart int
	funcKind   bool
}{
	"Counter":      {2, false},
	"FloatCounter": {2, false},
	"Gauge":        {2, false},
	"Histogram":    {3, false},
	"CounterFunc":  {3, true},
	"GaugeFunc":    {3, true},
}

var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// constructorRE is the set of function-name shapes that count as a
// construction path. init and main are exact (a binary's main is its
// construction phase); the rest are prefixes.
var constructorRE = regexp.MustCompile(`^(init$|main$|New|new|Instrument|ensure)`)

// metricSite is one registration call, as far as it can be resolved
// statically.
type metricSite struct {
	pos      token.Pos
	family   string // resolved constant name ("" when unresolvable)
	labels   string // canonical constant label rendering; "<dynamic>" if any label is computed
	funcKind bool
	pkgName  string
	pkgPath  string
}

func runMetricName(pass *analysis.Pass) error {
	sites := collectMetricSites(pass, true)
	// Per-package duplicate detection for function-backed metrics: the
	// registry panics on these at runtime; catch them at vet time. Only
	// fully-constant label sets participate — dynamic labels (cfg.Labels)
	// are exactly how legitimate same-name instances distinguish
	// themselves.
	seen := make(map[string]token.Pos)
	for _, s := range sites {
		if !s.funcKind || s.family == "" || s.labels == "<dynamic>" {
			continue
		}
		key := s.family + s.labels
		if prev, dup := seen[key]; dup {
			pass.Reportf(s.pos,
				"func metric %q%s already registered at %s; the registry will panic on the duplicate — add distinguishing labels",
				s.family, s.labels, pass.Fset.Position(prev))
			continue
		}
		seen[key] = s.pos
	}
	return nil
}

func runMetricNameModule(mp *analysis.ModulePass) error {
	// Repo-wide uniqueness: one metric family belongs to one package.
	owner := make(map[string]*metricSite)
	for _, pass := range mp.Passes {
		sites := collectMetricSites(pass, false)
		for i := range sites {
			s := &sites[i]
			if s.family == "" {
				continue
			}
			first, ok := owner[s.family]
			if !ok {
				owner[s.family] = s
				continue
			}
			if first.pkgPath != s.pkgPath {
				mp.Report(analysis.Diagnostic{
					Pos:      s.pos,
					Analyzer: mp.Analyzer.Name,
					Message: fmt.Sprintf(
						"metric family %q is already owned by package %s (%s); one family, one package",
						s.family, first.pkgPath, posOf(mp, first)),
				})
			}
		}
	}
	return nil
}

func posOf(mp *analysis.ModulePass, s *metricSite) string {
	for _, p := range mp.Passes {
		if p.Pkg != nil && p.Pkg.Path() == s.pkgPath {
			return p.Fset.Position(s.pos).String()
		}
	}
	return "?"
}

// collectMetricSites walks the package for Registry registration calls.
// When report is true it emits the per-site diagnostics (constant name,
// prefix convention, constructor-path rule) as it goes; the module pass
// re-collects silently.
func collectMetricSites(pass *analysis.Pass, report bool) []metricSite {
	if pass.Pkg == nil {
		return nil
	}
	var sites []metricSite
	pkgName := pass.Pkg.Name()
	prefix := pkgName
	if pkgName == "main" && len(pass.Files) > 0 {
		// Binaries carry the command name — the cmd/<name> directory —
		// as their metric prefix; every main package would otherwise
		// claim the same "main_" namespace.
		prefix = filepath.Base(filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename))
	}
	pass.EachFunc(func(_ *ast.File, decl *ast.FuncDecl) {
		inConstructor := constructorRE.MatchString(analysis.FuncName(decl))
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := analysis.MethodCall(call)
			if !ok {
				return true
			}
			m, ok := registerMethods[sel.Sel.Name]
			if !ok || len(call.Args) < m.labelStart-1 {
				return true
			}
			if !pass.ReceiverNamed(sel, "telemetry", "Registry") {
				return true
			}
			site := metricSite{
				pos:      call.Args[0].Pos(),
				funcKind: m.funcKind,
				pkgName:  pkgName,
				pkgPath:  pass.Pkg.Path(),
			}
			name, constant := pass.ConstString(call.Args[0])
			switch {
			case constant:
				site.family = name
				if report {
					if !metricNameRE.MatchString(name) {
						pass.Reportf(site.pos,
							"metric name %q is not of Prometheus form [a-z][a-z0-9_]*", name)
					} else if !strings.HasPrefix(name, prefix+"_") {
						pass.Reportf(site.pos,
							"metric name %q must carry this package's prefix %q", name, prefix+"_")
					}
				}
			default:
				if report {
					pass.Reportf(site.pos,
						"metric name must be a compile-time constant so uniqueness and grep-ability are checkable")
				}
			}
			site.labels = renderLabelArgs(pass, call.Args, m.labelStart)
			if report {
				checkWorkloadLabels(pass, call.Args, m.labelStart)
			}
			if report && !inConstructor {
				pass.Reportf(call.Pos(),
					"metric registered inside %s; registration takes the registry lock — move it to a construction path (init, New*, Instrument*, ensure*)",
					analysis.FuncName(decl))
			}
			sites = append(sites, site)
			return true
		})
	})
	return sites
}

// checkWorkloadLabels enforces the `workload` label vocabulary: a
// constant workload label value must be a registered phiwork kind or the
// "other" catch-all. Dashboards and the bench comparators select on
// workload="rsa-priv" etc.; a constant value outside the set is a series
// no consumer will ever match. Computed values (the mkKind-closure
// registration loop over phiwork.Kinds) are dynamic and pass through.
func checkWorkloadLabels(pass *analysis.Pass, args []ast.Expr, start int) {
	if len(args) <= start {
		return
	}
	labels := args[start:]
	for i := 0; i+1 < len(labels); i += 2 {
		k, okK := pass.ConstString(labels[i])
		if !okK || k != "workload" {
			continue
		}
		v, okV := pass.ConstString(labels[i+1])
		if okV && !workloadVocab[v] {
			pass.Reportf(labels[i+1].Pos(),
				"workload label value %q is not a registered phiwork kind (%s); consumers select on the canonical kinds",
				v, workloadList())
		}
	}
}

// renderLabelArgs canonicalizes the variadic label pairs: a sorted
// `{k="v",...}` when every element is a string constant, "<dynamic>"
// when any is computed, "" when there are none.
func renderLabelArgs(pass *analysis.Pass, args []ast.Expr, start int) string {
	if len(args) <= start {
		return ""
	}
	labels := args[start:]
	var pairs []string
	for i := 0; i+1 < len(labels); i += 2 {
		k, okK := pass.ConstString(labels[i])
		v, okV := pass.ConstString(labels[i+1])
		if !okK || !okV {
			return "<dynamic>"
		}
		pairs = append(pairs, k+`="`+v+`"`)
	}
	if len(labels) == 1 {
		// A single argument is a `labels...` splat of a slice — dynamic.
		if _, ok := pass.ConstString(labels[0]); !ok {
			return "<dynamic>"
		}
	}
	if len(pairs) == 0 {
		return ""
	}
	sort.Strings(pairs)
	return "{" + strings.Join(pairs, ",") + "}"
}
