// Package metrics implements the paper's evaluation metrics (§7.2): recall
// score of top configurations (Eqn. 3), absolute percentage error and its
// median (MdAPE), and the least-number-of-uses practicality metric
// (§7.2.3). Throughout, lower metric values mean better performance
// (execution time or computer time).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// topSelectMax bounds the insertion-select fast path: for requests up to
// this size a partial selection over the input beats sorting all of it.
const topSelectMax = 16

// TopIndices returns the indices of the n smallest values, best first.
// Ties break by index so rankings are deterministic. n is clamped to
// [0, len(values)].
//
// Small requests — the common case throughout the tuner, which ranks by
// top-1..3 recall and batch sizes of a handful — avoid the full argsort:
// n ≤ topSelectMax is an insertion select, O(len(values)) for n = 1 and
// byte-identical to the sort (TestTopIndicesFastPaths pins this).
func TopIndices(n int, values []float64) []int {
	if n > len(values) {
		n = len(values)
	}
	if n <= 0 {
		return []int{}
	}
	if n <= topSelectMax && n < len(values) {
		return topSelect(n, values)
	}
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		va, vb := values[idx[a]], values[idx[b]]
		if va != vb {
			return va < vb
		}
		return idx[a] < idx[b]
	})
	return idx[:n]
}

// topSelect keeps the n smallest (value, index) pairs in a sorted prefix,
// shifting on insert. Scanning in index order means an incoming element
// never displaces an equal-valued earlier index, preserving the tie rule.
func topSelect(n int, values []float64) []int {
	idx := make([]int, 0, n)
	for i, v := range values {
		if len(idx) == n && v >= values[idx[n-1]] {
			continue
		}
		j := len(idx)
		if j < n {
			idx = append(idx, 0)
		} else {
			j--
		}
		for j > 0 && v < values[idx[j-1]] {
			idx[j] = idx[j-1]
			j--
		}
		idx[j] = i
	}
	return idx
}

// RecallScore is Eqn. 3: the percentage overlap between the top-n
// configurations under the model scores and under the measured truth, both
// over the same configuration set. Returns a value in [0, 100].
func RecallScore(n int, scores, truth []float64) float64 {
	if len(scores) != len(truth) {
		panic(fmt.Sprintf("metrics: scores (%d) and truth (%d) length mismatch", len(scores), len(truth)))
	}
	if n <= 0 || len(scores) == 0 {
		return 0
	}
	pred := TopIndices(n, scores)
	act := TopIndices(n, truth)
	inPred := make(map[int]bool, len(pred))
	for _, i := range pred {
		inPred[i] = true
	}
	common := 0
	for _, i := range act {
		if inPred[i] {
			common++
		}
	}
	return float64(common) / float64(len(act)) * 100
}

// RecallSum returns Sr(1)+Sr(2)+Sr(3), the model-switch detection score of
// Algorithm 1 (summed "to increase stability", §5).
func RecallSum(scores, truth []float64) float64 {
	return RecallScore(1, scores, truth) + RecallScore(2, scores, truth) + RecallScore(3, scores, truth)
}

// APE returns the absolute percentage error |y−ŷ|/|y| of one prediction.
func APE(actual, predicted float64) float64 {
	if actual == 0 {
		if predicted == 0 {
			return 0
		}
		return 1
	}
	ape := (actual - predicted) / actual
	if ape < 0 {
		ape = -ape
	}
	return ape
}

// MdAPE returns the median absolute percentage error over a sample set,
// in percent (as plotted in the paper's Fig. 6).
func MdAPE(actual, predicted []float64) float64 {
	if len(actual) != len(predicted) {
		panic(fmt.Sprintf("metrics: actual (%d) and predicted (%d) length mismatch", len(actual), len(predicted)))
	}
	apes := make([]float64, len(actual))
	for i := range actual {
		apes[i] = APE(actual[i], predicted[i])
	}
	return Median(apes) * 100
}

// Median returns the median of xs (0 when empty). xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Mean returns the arithmetic mean of xs (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// LeastNumberOfUses is §7.2.3: the number of tuned workflow runs needed to
// recoup the training-data collection cost, N = c/Δp, where c is the total
// collection cost and Δp = expert − tuned is the per-run improvement over
// the expert configuration. Returns +Inf (unattainable) when the tuned
// configuration is no better than the expert's.
func LeastNumberOfUses(collectionCost, expertPerf, tunedPerf float64) float64 {
	dp := expertPerf - tunedPerf
	if dp <= 0 {
		return math.Inf(1)
	}
	return collectionCost / dp
}

// Spearman returns the Spearman rank-correlation coefficient between two
// paired series — how monotonically a model's scores track the measured
// truth, robust to the heavy-tailed time distributions of poor
// configurations. Returns 0 for degenerate inputs.
func Spearman(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metrics: Spearman length mismatch %d vs %d", len(a), len(b)))
	}
	n := len(a)
	if n < 2 {
		return 0
	}
	ra := ranks(a)
	rb := ranks(b)
	meanA, meanB := Mean(ra), Mean(rb)
	var cov, varA, varB float64
	for i := 0; i < n; i++ {
		da, db := ra[i]-meanA, rb[i]-meanB
		cov += da * db
		varA += da * da
		varB += db * db
	}
	if varA == 0 || varB == 0 {
		return 0
	}
	return cov / math.Sqrt(varA*varB)
}

// ranks returns fractional ranks (ties share the average rank).
func ranks(xs []float64) []float64 {
	idx := TopIndices(len(xs), xs)
	out := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}
