package ml

import (
	"fmt"
	"math"
)

// Scaler standardises feature columns to zero mean and unit variance.
// Columns with zero variance are passed through centred only, so constant
// features cannot blow up the transform.
type Scaler struct {
	Mean []float64
	Std  []float64
}

// FitScaler computes the per-column statistics of the design rows.
func FitScaler(rows [][]float64) (*Scaler, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("ml: cannot fit scaler on empty data")
	}
	k := len(rows[0])
	s := &Scaler{Mean: make([]float64, k), Std: make([]float64, k)}
	for _, r := range rows {
		if len(r) != k {
			return nil, fmt.Errorf("ml: ragged design row (%d cols, want %d)", len(r), k)
		}
		for j, v := range r {
			s.Mean[j] += v
		}
	}
	n := float64(len(rows))
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, r := range rows {
		for j, v := range r {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		// Columns that are constant — or nearly so relative to their
		// magnitude — pass through centred only. Without the relative
		// test, a feature like a p-value score that saturates at 1.0 with
		// a 1e-8 spread becomes a huge-leverage direction after
		// standardisation and lets the estimator fit pure label noise.
		if s.Std[j] <= 1e-6*(1+math.Abs(s.Mean[j])) {
			s.Std[j] = 1
		}
	}
	return s, nil
}

// TransformInto standardises one row into a caller-owned buffer of the
// same length, allocating nothing.
func (s *Scaler) TransformInto(row, out []float64) {
	for j, v := range row {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
}

// TransformAll standardises every row.
func (s *Scaler) TransformAll(rows [][]float64) [][]float64 {
	return s.TransformAllInto(rows, nil)
}

// TransformAllInto standardises every row, reusing the buffer's row
// slices where they are already the right length — the refit hot path
// passes the previous iteration's buffer back in, so a session's
// per-label retrains stop allocating one slice per row per fit. The
// returned slice is the (possibly regrown) buffer.
func (s *Scaler) TransformAllInto(rows, buf [][]float64) [][]float64 {
	if cap(buf) < len(rows) {
		grown := make([][]float64, len(rows))
		copy(grown, buf[:cap(buf)])
		buf = grown
	}
	buf = buf[:len(rows)]
	for i, r := range rows {
		if len(buf[i]) != len(r) {
			buf[i] = make([]float64, len(r))
		}
		s.TransformInto(r, buf[i])
	}
	return buf
}
