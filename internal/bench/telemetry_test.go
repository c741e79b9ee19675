package bench

import "testing"

// TestTelemetryOverhead holds the telemetry budget: enabling the full
// observability surface (journeys and their trace spans, pass slices,
// phase counters) must cost under 2% of the server's wall time. Wall
// clocks on shared CI machines are noisy even with best-of-trials
// filtering, so the check retries: any attempt inside budget passes, and
// only a persistent overshoot fails.
func TestTelemetryOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock benchmark")
	}
	const budget = 0.02
	var last TelemetryOverheadResult
	for attempt := 0; attempt < 3; attempt++ {
		res, err := TelemetryOverhead(192, 2, int64(attempt+1))
		if err != nil {
			t.Fatal(err)
		}
		t.Log(res)
		if res.Overhead < budget {
			return
		}
		last = res
	}
	t.Fatalf("telemetry overhead persistently over budget (%.0f%%): %s", 100*budget, last)
}
