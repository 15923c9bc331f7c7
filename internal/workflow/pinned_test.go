package workflow

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
)

// pinnedMeasurements are SHA-256 digests, one per benchmark, over the float
// bits of every Measurement the simulator produces for a fixed set of
// configurations in both run modes, in-situ and solo, with and without
// noise; the bits are those of the simulator before its event core was
// rebuilt. TestInSituDeterministic compares two runs of one binary; this
// pins the bits across commits — event order, water-filling tie order,
// float association — so a simulator change that claims "same
// measurements" has to prove it. A deliberate model change regenerates
// them (the failure message prints the new value).
var pinnedMeasurements = map[string]string{
	"LV": "20db352d14d97be5347ec94f1b9dc6507ab88d434ffcaa9f0cdaa45994399d03",
	"HS": "f409a232cdb2756b5e52d86b07f79e61d351c2d4fdb75b7533383abc9c37367a",
	"GP": "28489e40b60a382f1a2104a3c24538aa71f8d8d687b48db3a2a63220dc34a7af",
}

const (
	pinnedSeed    = 20211114
	pinnedConfigs = 40
)

// measHasher folds measurements into a digest bit for bit.
type measHasher struct {
	h   hash.Hash
	buf [8]byte
}

func (mh *measHasher) float(v float64) {
	binary.LittleEndian.PutUint64(mh.buf[:], math.Float64bits(v))
	mh.h.Write(mh.buf[:])
}

func (mh *measHasher) floats(vs []float64) {
	mh.float(float64(len(vs)))
	for _, v := range vs {
		mh.float(v)
	}
}

// measurement hashes every field of m, or the error text when the run
// failed (a run that starts or stops failing moves the digest too).
func (mh *measHasher) measurement(m Measurement, err error) {
	if err != nil {
		mh.h.Write([]byte(err.Error()))
		return
	}
	mh.float(m.ExecTime)
	mh.float(m.CompTime)
	mh.float(m.EnergyKJ)
	mh.floats(m.PerComponent)
	mh.floats(m.PerComponentEnergy)
}

func TestMeasurementsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pin amd64 float bits (FMA fusion changes them elsewhere)")
	}
	m := cluster.Default()
	for _, b := range Benchmarks(m) {
		cfgs := b.Space.SampleN(rand.New(rand.NewPCG(pinnedSeed, 1)), pinnedConfigs)
		cfgs = append(cfgs, b.ExpertExec, b.ExpertComp)
		noise := rand.New(rand.NewPCG(pinnedSeed, 2))
		mh := &measHasher{h: sha256.New()}
		for _, cfg := range cfgs {
			w, err := b.Build(cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", b.Name, cfg, err)
			}
			mh.measurement(w.RunInSitu())
			mh.measurement(w.Measure(nil))
			mh.measurement(w.Measure(noise))
			for j, cs := range b.Components {
				var sub cfgspace.Config
				if cs.Space != nil {
					sub = b.Sub(cfg, j)
				}
				c := cs.BuildSolo(sub)
				mh.measurement(RunSolo(m, c, cs.InBytesPerStep))
				mh.measurement(MeasureSolo(m, c, cs.InBytesPerStep, nil))
				mh.measurement(MeasureSolo(m, c, cs.InBytesPerStep, noise))
			}
		}
		got := hex.EncodeToString(mh.h.Sum(nil))
		if want := pinnedMeasurements[b.Name]; got != want {
			t.Errorf("%s: measurement digest\n\t got %q\n\twant %q", b.Name, got, want)
		}
	}
}
