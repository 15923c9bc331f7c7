package histdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ceal/internal/tuner"
)

// corruptFixture builds a store whose history spans several segments and
// returns the store path and the tail segment's file path. Every record
// carries pool scores, so damage also lands inside pool_bits.
func corruptFixture(t testing.TB, dir string, n int) (string, string) {
	path := filepath.Join(dir, "runs")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	s.segmentBytes = 2048
	for i := 1; i <= n; i++ {
		rec := &RunRecord{ID: fmt.Sprintf("run-%06d", i), SpecKey: fmt.Sprintf("k%d", i), State: StateDone,
			Result: &tuner.Result{PoolScores: []float64{float64(i), 0.1 * float64(i), -1.0 / float64(i), 1e-300, 12345.678}}}
		if err := s.Save(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(path, "seg-*.log"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("fixture needs multiple segments, got %v (err %v)", segs, err)
	}
	sort.Strings(segs)
	return path, segs[len(segs)-1]
}

// TestCrashRecoveryAtEveryTruncationPoint is the crash-recovery property:
// for every possible truncation of the tail segment — every prefix a crash
// mid-append could leave — the store must open, keep every fully-written
// record, and drop only the torn tail.
func TestCrashRecoveryAtEveryTruncationPoint(t *testing.T) {
	path, tail := corruptFixture(t, t.TempDir(), 12)
	orig, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	full, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	total := len(full.List())
	full.Close()

	// Records living in earlier (undamaged) segments must always survive.
	inTail := 0
	for _, b := range orig {
		if b == '\n' {
			inTail++
		}
	}
	safe := total - inTail

	prevKept := -1
	for cut := len(orig); cut >= 0; cut-- {
		if err := os.WriteFile(tail, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFileStore(path)
		if err != nil {
			t.Fatalf("cut=%d: open failed: %v", cut, err)
		}
		kept := len(s.List())
		s.Close()

		// Fully-written records before the cut: complete framed lines.
		complete := 0
		for _, b := range orig[:cut] {
			if b == '\n' {
				complete++
			}
		}
		if kept != safe+complete {
			t.Fatalf("cut=%d: kept %d records, want %d (%d safe + %d complete in tail)",
				cut, kept, safe+complete, safe, complete)
		}
		if prevKept >= 0 && kept > prevKept {
			t.Fatalf("cut=%d: shrinking the tail grew the store (%d > %d)", cut, kept, prevKept)
		}
		prevKept = kept
	}
}

// TestTailByteFlipDropsOnlyDamagedRecord: flipping a byte inside the tail
// segment's last record must drop exactly that record (checksum catches
// it), while a flip mid-segment — intact records after the damage — is
// real corruption and must refuse the open with a *CorruptError.
func TestTailByteFlipDropsOnlyDamagedRecord(t *testing.T) {
	path, tail := corruptFixture(t, t.TempDir(), 12)
	orig, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	full, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	total := len(full.List())
	full.Close()

	lastStart := 0
	for i := 0; i < len(orig)-1; i++ {
		if orig[i] == '\n' {
			lastStart = i + 1
		}
	}

	// Flip every byte of the final record in turn: each damaged variant
	// must load all records but that one.
	for pos := lastStart; pos < len(orig)-1; pos++ {
		mut := append([]byte(nil), orig...)
		mut[pos] ^= 0x01
		if err := os.WriteFile(tail, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFileStore(path)
		if err != nil {
			t.Fatalf("flip@%d: open failed: %v", pos, err)
		}
		kept := len(s.List())
		s.Close()
		if kept != total-1 {
			t.Fatalf("flip@%d: kept %d records, want %d", pos, kept, total-1)
		}
	}

	// Damage the first record of a segment that holds several: intact
	// records follow the flip, so the open must refuse rather than silently
	// lose history. (The tail segment may hold a single record, so pick the
	// first multi-record segment.)
	if err := os.WriteFile(tail, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(path, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Count(string(data), "\n") < 2 {
			continue
		}
		mut := append([]byte(nil), data...)
		mut[10] ^= 0x01
		if err := os.WriteFile(seg, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		// The refusal is typed: callers tell corruption from I/O errors.
		_, err = OpenFileStore(path)
		var corrupt *CorruptError
		if !errors.As(err, &corrupt) || corrupt.Path != seg || corrupt.Offset != 0 {
			t.Fatalf("mid-segment corruption: open = %v, want a *CorruptError at offset 0 of %s", err, seg)
		}
		return
	}
	t.Fatal("fixture produced no multi-record segment")
}

// FuzzSegmentTailRecovery throws arbitrary truncate-and-flip damage at the
// tail segment. Invariants: the opener never panics; pure truncation always
// opens; and whenever it opens, every surviving record is byte-authentic —
// checksums make invented or spliced records impossible.
func FuzzSegmentTailRecovery(f *testing.F) {
	dir := f.TempDir()
	path, tail := corruptFixture(f, dir, 10)
	orig, err := os.ReadFile(tail)
	if err != nil {
		f.Fatal(err)
	}
	full, err := OpenFileStore(path)
	if err != nil {
		f.Fatal(err)
	}
	want := make(map[string]string) // ID → the JSON that was written
	for _, rec := range full.List() {
		want[rec.ID] = string(mustJSON(f, rec))
	}
	full.Close()

	f.Add(uint16(0), uint16(0), byte(0))
	f.Add(uint16(len(orig)), uint16(5), byte(0x80))
	f.Add(uint16(len(orig)/2), uint16(len(orig)/3), byte(0x01))

	f.Fuzz(func(t *testing.T, cut uint16, flip uint16, mask byte) {
		data := append([]byte(nil), orig...)
		if int(cut) < len(data) {
			data = data[:cut]
		}
		flipped := false
		if mask != 0 && int(flip) < len(data) {
			data[flip] ^= mask
			flipped = true
		}
		if err := os.WriteFile(tail, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFileStore(path)
		if err != nil {
			if !flipped {
				t.Fatalf("pure truncation rejected: %v", err)
			}
			return // refusing flipped-byte corruption is a valid outcome
		}
		for _, rec := range s.List() {
			if js, ok := want[rec.ID]; !ok || string(mustJSON(t, rec)) != js {
				t.Fatalf("recovered record %q/%s was never written", rec.ID, rec.State)
			}
		}
		s.Close()
	})
}
