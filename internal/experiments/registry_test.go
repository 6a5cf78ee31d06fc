package experiments

import (
	"slices"
	"testing"

	"repro/internal/platform"
)

// TestSetModesUnion pins the up-front fan-out's mode set: the union of the
// selected experiments' configurations in AllModes order, and none for a
// selection that reads no suite runs.
func TestSetModesUnion(t *testing.T) {
	reg := Registry()
	for _, tc := range []struct {
		sel  string
		want []platform.Mode
	}{
		{"all", AllModes()},
		{"fig7", []platform.Mode{platform.KSM}},
		{"table4", []platform.Mode{platform.Baseline, platform.KSM}},
		{"table5", []platform.Mode{platform.PageForge}},
		{"fig9", AllModes()},
		{"ras", nil},
	} {
		set, err := reg.Select(tc.sel)
		if err != nil {
			t.Fatal(err)
		}
		if got := set.Modes(); !slices.Equal(got, tc.want) {
			t.Errorf("%s: modes %v, want %v", tc.sel, got, tc.want)
		}
	}
}

// TestFigures9And10ShareOneQueueingPhase pins that the two latency figures
// render from one LatencyResult, so a run selecting both computes the
// queueing phase once, and that each renders only its own figure.
func TestFigures9And10ShareOneQueueingPhase(t *testing.T) {
	s := fastSuiteOneApp(t, "img_dnn")
	var arts []Artifact
	for _, name := range []string{"fig9", "fig10"} {
		set, err := Registry().Select(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := set[0].Run(s)
		if err != nil {
			t.Fatal(err)
		}
		arts = append(arts, a...)
	}
	if len(arts) != 2 || arts[0].Key != "fig9" || arts[1].Key != "fig10" {
		t.Fatalf("artifacts %+v, want fig9 then fig10", arts)
	}
	r, ok := arts[0].Value.(*LatencyResult)
	if !ok || arts[1].Value != any(r) {
		t.Fatalf("fig9 and fig10 values %T %T are not one LatencyResult", arts[0].Value, arts[1].Value)
	}
	if arts[0].Text != r.Figure9() || arts[1].Text != r.Figure10() {
		t.Error("fig9/fig10 text is not Figure9()/Figure10()")
	}
}
