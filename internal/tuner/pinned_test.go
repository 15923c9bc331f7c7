package tuner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand/v2"
	"runtime"
	"testing"

	"ceal/internal/tuner/events"
)

// pinnedDigests are SHA-256 digests of every algorithm's Result (as JSON)
// and of its recorded event trace (JSONL, duration_ns zeroed) on
// synthProblem, generated at the commit before the strategy-seam refactor.
// They pin cross-commit stability — RNG streams, selection order, float
// bits, event order — which TestResultsIdenticalAcrossWorkerCounts
// (same-commit, across widths) cannot. A legitimate behaviour change must
// regenerate them deliberately (the failure message prints the new value).
var pinnedDigests = map[string][2]string{
	"RS/cold":       {"f51006e1688612eb31d39e89329cd6688ec02a7e4f9882a68d2e57d9f0c6a6ba", "54b1311cddee1b1d78e9817061c6e4637e824f9aa62a6069c218b71d550cdc35"},
	"RS/history":    {"f51006e1688612eb31d39e89329cd6688ec02a7e4f9882a68d2e57d9f0c6a6ba", "54b1311cddee1b1d78e9817061c6e4637e824f9aa62a6069c218b71d550cdc35"},
	"RS/warm":       {"f51006e1688612eb31d39e89329cd6688ec02a7e4f9882a68d2e57d9f0c6a6ba", "6fbf0a3ccbe05d5ec5f16a47f60b75cbe4960475dda4fe30af85393ecd5bc442"},
	"AL/cold":       {"45d0ef9648e6f37277dd0f4ee7056ea7b3ae9d1fb5c147b17472b39445d40193", "45ef06cdf7454b5ce6310fff06d8319dea33163949f65201c7aa3835b2fb8d69"},
	"AL/history":    {"45d0ef9648e6f37277dd0f4ee7056ea7b3ae9d1fb5c147b17472b39445d40193", "45ef06cdf7454b5ce6310fff06d8319dea33163949f65201c7aa3835b2fb8d69"},
	"AL/warm":       {"ae06810eeb88cf1168390f6b9b2801ee0148ea67fed92087943c5a81e50115c5", "a7ab22a967e5f8ea6a22c9ce5839b5874a775c44fe1a3e71e5d28de795ac617f"},
	"GEIST/cold":    {"311615b8054b7204dd1c4b56cce116a382888f4e2bdfb8a96feb3c4dd7a9288b", "47d1c2d351a5bfca79cc01cf1136e3a276520f5bb34556a86253d61e1a24e6eb"},
	"GEIST/history": {"311615b8054b7204dd1c4b56cce116a382888f4e2bdfb8a96feb3c4dd7a9288b", "47d1c2d351a5bfca79cc01cf1136e3a276520f5bb34556a86253d61e1a24e6eb"},
	"GEIST/warm":    {"311615b8054b7204dd1c4b56cce116a382888f4e2bdfb8a96feb3c4dd7a9288b", "bac00ee5ed2f168b9002e3d6cd37302b71791682dcf847cd31602b3bf6da646a"},
	"ALpH/cold":     {"542af5e76e50011eb3f0e6b4ff8f68953321d8c646b7c82a69b1a8523e900489", "5a662272e500532512901cc4a3250475caf42e27c2b1a1f02f9a20eef4901e7f"},
	"ALpH/history":  {"33dd64247ff37e5b487bdd04332c91614c7da3227793654f439d44890c666025", "46be2f3702380c7d09a749556b1e39b1c09847bf3b9711e77a3185d3e13e5663"},
	"ALpH/warm":     {"ed2b4bab3f15d21762143e0ed0ce4dabef4918c7bbc962f8e0426a62ced82cda", "adae62ecabf4304ae522d15d3d13653bf20f23be1e7d1b3a3638eedf9aa681d0"},
	"CEAL/cold":     {"c3ad5cfd9b177dbcd8ad8e075ac8aae7daae4a64175491f9b07b88fcb4cb63df", "da528cc7081fe50063021d3bd479d22ab8ba77e711e884737e3d6aff96623886"},
	"CEAL/history":  {"6b7316bc2491e4cdc41e5679ed358b1986e2190be2822da0adf5d60551436e8c", "dc8095259f91083b0f435b30ebd4a4cdfcfe267999cb988f504edb1c398f98a7"},
	"CEAL/warm":     {"827546fbb729ac7f1a0127fabd78c5a29fc694041ef35d8f4e330f5948021f05", "d18852c838af32f98db3b0380c00a6feec17196e006865b2d6faec903da31085"},
}

const (
	pinnedSeed   = 42
	pinnedPool   = 300
	pinnedBudget = 24
)

// pinnedVariants builds the cold, full-history and warm-started problems.
func pinnedVariants(t *testing.T) map[string]func() *Problem {
	warm := warmData(t, pinnedSeed-1)
	return map[string]func() *Problem{
		"cold": func() *Problem { return synthProblem(pinnedSeed, pinnedPool) },
		"history": func() *Problem {
			p := synthProblem(pinnedSeed, pinnedPool)
			rng := rand.New(rand.NewPCG(pinnedSeed, 200))
			p.History = make([][]Sample, len(p.Components))
			for j, c := range p.Components {
				for _, cfg := range c.Space.SampleN(rng, 100) {
					v, _ := p.Eval.MeasureComponent(j, cfg)
					p.History[j] = append(p.History[j], Sample{Cfg: cfg, Value: v})
				}
			}
			return p
		},
		"warm": func() *Problem {
			p := synthProblem(pinnedSeed, pinnedPool)
			p.Warm = warm
			return p
		},
	}
}

func TestAlgorithmResultsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pin amd64 float bits (FMA fusion changes them elsewhere)")
	}
	variants := pinnedVariants(t)
	for _, alg := range allAlgorithms() {
		for _, variant := range []string{"cold", "history", "warm"} {
			name := alg.Name() + "/" + variant
			p := variants[variant]()
			rec := events.NewRecorder()
			p.Observer = rec
			res, err := alg.Tune(p, pinnedBudget)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			resJSON, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			trace := sha256.New()
			for _, e := range rec.Events() {
				if mt, ok := e.(*events.ModelTrained); ok {
					mt.DurationNS = 0
				}
				line, err := events.MarshalJSON(e)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				trace.Write(line)
				trace.Write([]byte{'\n'})
			}
			resSum := sha256.Sum256(resJSON)
			got := [2]string{hex.EncodeToString(resSum[:]), hex.EncodeToString(trace.Sum(nil))}
			want, ok := pinnedDigests[name]
			if !ok {
				t.Errorf("%s: no pinned digest; got\n\t%q: {%q, %q},", name, name, got[0], got[1])
				continue
			}
			if got != want {
				t.Errorf("%s: result/trace digests\n\t got {%q, %q}\n\twant {%q, %q}", name, got[0], got[1], want[0], want[1])
			}
		}
	}
}
