package feature

import (
	"fmt"

	"viewseeker/internal/metric"
	"viewseeker/internal/view"
)

// Canonical names of the eight standard utility features, in their fixed
// order. Weight vectors (Eq. 4) index features in this order.
const (
	KL        = "KL"
	EMD       = "EMD"
	L1        = "L1"
	L2        = "L2"
	MaxDiff   = "MAX_DIFF"
	Usability = "USABILITY"
	Accuracy  = "ACCURACY"
	PValue    = "P_VALUE"
)

// Feature is one utility component: a named function of a view pair.
type Feature struct {
	Name    string
	Compute func(p *view.Pair) (float64, error)
}

// Registry is an ordered, name-unique collection of features. Every
// registry starts with the standard eight of StandardRegistry, in order:
// StandardRegistry is the only constructor and Add only appends. The
// layout-block kernel (block.go) relies on that prefix to fill the first
// eight columns straight from layout statistics; custom features ride
// behind it, from column eight on.
type Registry struct {
	feats []Feature
	index map[string]int
}

// StandardRegistry returns the paper's eight utility features: the five
// deviation measures between target and reference distributions, plus
// Usability, Accuracy and the p-value score. Custom features are appended
// to it with Add.
func StandardRegistry() *Registry {
	r := &Registry{index: make(map[string]int)}
	dist := func(f func(p, q []float64) (float64, error)) func(*view.Pair) (float64, error) {
		return func(p *view.Pair) (float64, error) {
			return f(p.Target.Distribution(), p.Reference.Distribution())
		}
	}
	for _, f := range []Feature{
		{KL, dist(metric.KLDivergence)},
		{EMD, dist(metric.EMD)},
		{L1, dist(metric.L1)},
		{L2, dist(metric.L2)},
		{MaxDiff, dist(metric.MaxDiff)},
		{Usability, func(p *view.Pair) (float64, error) {
			return metric.Usability(p.Target.Bins())
		}},
		{Accuracy, func(p *view.Pair) (float64, error) {
			return metric.Accuracy(p.Target.Counts, p.Target.Sums, p.Target.SumSqs, p.Target.Shift)
		}},
		{PValue, func(p *view.Pair) (float64, error) {
			return metric.PValueScore(p.Target.Counts, p.Reference.Distribution())
		}},
	} {
		if err := r.Add(f); err != nil {
			panic(err) // unreachable: names are unique by construction
		}
	}
	return r
}

// AddQuadratic extends a registry with the pairwise products of its
// current features (including squares), named "A*B". A linear estimator
// over the extended space captures multiplicative utility functions —
// e.g. u* = EMD·KL — that the paper's linear composition (Eq. 4) cannot.
// Call it after all base features are registered.
func AddQuadratic(r *Registry) error {
	base := make([]Feature, len(r.feats))
	copy(base, r.feats)
	for i := 0; i < len(base); i++ {
		for j := i; j < len(base); j++ {
			fi, fj := base[i], base[j]
			err := r.Add(Feature{
				Name: fi.Name + "*" + fj.Name,
				Compute: func(p *view.Pair) (float64, error) {
					a, err := fi.Compute(p)
					if err != nil {
						return 0, err
					}
					b, err := fj.Compute(p)
					if err != nil {
						return 0, err
					}
					return a * b, nil
				},
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Add appends a feature. Names must be unique and non-empty.
func (r *Registry) Add(f Feature) error {
	if f.Name == "" || f.Compute == nil {
		return fmt.Errorf("feature: feature needs a name and a compute function")
	}
	if _, dup := r.index[f.Name]; dup {
		return fmt.Errorf("feature: duplicate feature %q", f.Name)
	}
	r.index[f.Name] = len(r.feats)
	r.feats = append(r.feats, f)
	return nil
}

// Len returns the number of features.
func (r *Registry) Len() int { return len(r.feats) }

// Names returns the feature names in order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.feats))
	for i, f := range r.feats {
		out[i] = f.Name
	}
	return out
}

// Index returns the position of a named feature, or -1.
func (r *Registry) Index(name string) int {
	if i, ok := r.index[name]; ok {
		return i
	}
	return -1
}
