// Fixture for the metricname analyzer's per-package rules. The package
// is named phiserve, so the required prefix is "phiserve_".
package phiserve

import "phiopenssl/internal/telemetry"

const familyHits = "phiserve_fixture_hits_total"

type stats struct {
	load float64
}

func New(reg *telemetry.Registry, s *stats) {
	reg.Counter(familyHits, "requests seen")                   // named constant, proper prefix
	reg.Gauge("phiserve_fixture_depth", "depth", "card", "0")  // literal constant, labeled
	reg.Counter("phiserve-fixture-dashes", "bad form")         // want `not of Prometheus form`
	reg.Counter("fleet_fixture_wrong_total", "foreign prefix") // want `must carry this package's prefix "phiserve_"`

	name := "phiserve_fixture_dynamic_total"
	reg.Counter(name, "computed name") // want `must be a compile-time constant`

	// Workload label vocabulary: constants must be registered kinds.
	reg.Counter("phiserve_fixture_work_total", "per-kind ops", "workload", "pss-sign")
	reg.Counter("phiserve_fixture_work_total", "per-kind ops", "workload", "other")
	kind := "dhe-var"
	reg.Counter("phiserve_fixture_work_total", "per-kind ops", "workload", kind)         // dynamic value, the mkKind shape
	reg.Counter("phiserve_fixture_work_total", "per-kind ops", "workload", "rsa")        // want `not a registered phiwork kind`
	reg.Gauge("phiserve_fixture_work_depth", "depth", "card", "0", "workload", "signer") // want `not a registered phiwork kind`

	reg.GaugeFunc("phiserve_fixture_load", "load", func() float64 { return s.load })
	reg.GaugeFunc("phiserve_fixture_load", "load", func() float64 { return -s.load }) // want `already registered`

	// Same family, distinguishing constant labels: distinct instances.
	reg.GaugeFunc("phiserve_fixture_card_load", "per-card load", func() float64 { return s.load }, "card", "0")
	reg.GaugeFunc("phiserve_fixture_card_load", "per-card load", func() float64 { return s.load }, "card", "1")
}

// Instrument builds the name from a caller-supplied prefix: the family
// is only known at the call site, so the name is as computed as any other.
func Instrument(reg *telemetry.Registry, prefix string) {
	reg.Gauge(prefix+"_fixture_depth", "queue depth") // want `must be a compile-time constant`
}

// ensureLazy is a construction path by the ensure* convention.
func ensureLazy(reg *telemetry.Registry) {
	reg.Counter("phiserve_fixture_lazy_total", "lazily constructed")
}

func (s *stats) record(reg *telemetry.Registry) {
	reg.Counter("phiserve_fixture_hot_total", "per-request registration").Inc() // want `metric registered inside record`
}

// newDynamicLabels shows func metrics whose labels come from config: the
// dynamic label set opts out of duplicate detection by design.
func newDynamicLabels(reg *telemetry.Registry, labels []string) {
	reg.GaugeFunc("phiserve_fixture_cfg_load", "load", func() float64 { return 0 }, labels...)
	reg.GaugeFunc("phiserve_fixture_cfg_load", "load", func() float64 { return 1 }, labels...)
}
