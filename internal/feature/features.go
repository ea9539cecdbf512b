package feature

import (
	"fmt"

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
// StandardRegistry is the only constructor, and Add only appends. The
// layout-block kernel (block.go) fills the first eight columns straight
// from layout statistics; custom features ride behind them, from column
// eight on, through their per-pair Compute.
type Registry struct {
	feats []Feature
	index map[string]int
}

// StandardRegistry returns the paper's eight utility features: the five
// deviation measures between target and reference distributions, plus
// Usability, Accuracy and the p-value score. The block kernel computes
// them, so they carry no per-pair Compute. Custom features are appended
// with Add.
func StandardRegistry() *Registry {
	r := &Registry{index: make(map[string]int)}
	for _, name := range []string{KL, EMD, L1, L2, MaxDiff, Usability, Accuracy, PValue} {
		r.index[name] = len(r.feats)
		r.feats = append(r.feats, Feature{Name: name})
	}
	return r
}

// Add appends a custom feature. Names must be unique and non-empty.
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
