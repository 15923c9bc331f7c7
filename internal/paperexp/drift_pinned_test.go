package paperexp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// pinnedDriftArms are SHA-256 digests over the ContinuousResult JSON of both
// drift-experiment arms (tune-once, then online) for one workflow under two
// profiles at smoke scale, generated at the commit before the experiment's
// private simulator evaluator / problem wiring / continuous assembly were
// replaced by internal/live's. The table rows are means of these results;
// this pins every field behind them (epochs, clocks, regret, incumbent) so
// the swap has to prove "same experiment", not just "same two decimals".
var pinnedDriftArms = map[string]string{
	"step":     "63866e69b87812414184cc02355b370246fc8637c487ca5bee79c3cc9809d55f",
	"periodic": "44b4533276c6f2eb20f82fa8a14e6bfa0673c618b41dcb64308c4630dcb9917f",
}

func TestDriftArmsPinned(t *testing.T) {
	opt := Options{Pool: 120, Reps: 1, Seed: 1, Workers: 2}
	for profile, want := range pinnedDriftArms {
		h := sha256.New()
		for _, maxEpochs := range []int{-1, 0} {
			arm, err := newDriftArm("LV", profile, opt, opt.Seed, maxEpochs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := arm.Run(driftBudget)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("LV/%s: drift arms digest %s, pinned %s", profile, got, want)
		}
	}
}
