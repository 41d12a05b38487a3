package smite

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/model"
	"repro/internal/rulers"
)

// The paper's deployment story (Section III-D) has the cluster scheduler
// characterize each application once — in the order of seconds — and keep
// the resulting profile for every future placement decision. These helpers
// give the profiles and the trained model a durable JSON form.

// Load failures are typed so callers can react per class — the qosd
// serving layer maps all three to HTTP 422 with a distinguishing error
// code. Match with errors.Is.
var (
	// ErrCorrupt wraps syntactically broken input: invalid or truncated
	// JSON, wrong top-level shape, a placement other than SMT or CMP.
	ErrCorrupt = errors.New("smite: corrupt persisted data")
	// ErrVersionSkew marks a file whose format version this build does not
	// understand.
	ErrVersionSkew = errors.New("smite: unsupported format version")
	// ErrDimensionMismatch marks a file measured under a different sharing
	// dimension layout (count, order, coefficient arity or Sen/Con vector
	// length) than this build's — loading it would silently mis-assign
	// every vector slot.
	ErrDimensionMismatch = errors.New("smite: sharing-dimension layout mismatch")
)

// profileFile is the on-disk envelope for characterizations.
type profileFile struct {
	// Version guards the format; Dimensions pins the dimension order the
	// vectors were measured in.
	Version    int      `json:"version"`
	Dimensions []string `json:"dimensions"`

	Profiles []Characterization `json:"profiles"`
}

// storedProfile decodes one persisted Characterization with its vectors as
// slices (the outer Sen/Con shadow the embedded arrays), so a vector of
// the wrong length is caught instead of zero-padded.
type storedProfile struct {
	Characterization
	Sen, Con []float64
}

// modelFile is the on-disk envelope for a trained model.
type modelFile struct {
	Version    int       `json:"version"`
	Dimensions []string  `json:"dimensions"`
	Coef       []float64 `json:"coefficients"`
	Intercept  float64   `json:"intercept"`
}

func dimensionNames() []string {
	out := make([]string, NumDimensions)
	for d := Dimension(0); d < NumDimensions; d++ {
		out[d] = d.String()
	}
	return out
}

func checkDimensions(got []string) error {
	want := dimensionNames()
	if len(got) != len(want) {
		return fmt.Errorf("%w: stored file has %d dimensions, this build has %d", ErrDimensionMismatch, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%w: stored dimension %d is %q, this build expects %q", ErrDimensionMismatch, i, got[i], want[i])
		}
	}
	return nil
}

// SaveProfiles writes characterizations as JSON.
func SaveProfiles(w io.Writer, chars []Characterization) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(profileFile{
		Version:    1,
		Dimensions: dimensionNames(),
		Profiles:   chars,
	})
}

// LoadProfiles reads characterizations written by SaveProfiles, verifying
// the dimension layout, every Sen/Con length and every placement.
func LoadProfiles(r io.Reader) ([]Characterization, error) {
	var f struct {
		Version    int             `json:"version"`
		Dimensions []string        `json:"dimensions"`
		Profiles   []storedProfile `json:"profiles"`
	}
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("%w: decoding profiles: %v", ErrCorrupt, err)
	}
	if f.Version != 1 {
		return nil, fmt.Errorf("%w: profile version %d", ErrVersionSkew, f.Version)
	}
	if err := checkDimensions(f.Dimensions); err != nil {
		return nil, err
	}
	out := make([]Characterization, len(f.Profiles))
	for i, p := range f.Profiles {
		if len(p.Sen) != int(NumDimensions) || len(p.Con) != int(NumDimensions) {
			return nil, fmt.Errorf("%w: profile %q has %d Sen and %d Con values, want %d", ErrDimensionMismatch, p.App, len(p.Sen), len(p.Con), NumDimensions)
		}
		if p.Placement != SMT && p.Placement != CMP {
			return nil, fmt.Errorf("%w: profile %q has placement %d", ErrCorrupt, p.App, p.Placement)
		}
		out[i] = p.Characterization
		copy(out[i].Sen[:], p.Sen)
		copy(out[i].Con[:], p.Con)
	}
	return out, nil
}

// SaveModel writes a trained model as JSON.
func SaveModel(w io.Writer, m Model) error {
	coef, c0 := m.Coefficients()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(modelFile{
		Version:    1,
		Dimensions: dimensionNames(),
		Coef:       coef[:],
		Intercept:  c0,
	})
}

// LoadModel reads a model written by SaveModel.
func LoadModel(r io.Reader) (Model, error) {
	var f modelFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return Model{}, fmt.Errorf("%w: decoding model: %v", ErrCorrupt, err)
	}
	if f.Version != 1 {
		return Model{}, fmt.Errorf("%w: model version %d", ErrVersionSkew, f.Version)
	}
	if err := checkDimensions(f.Dimensions); err != nil {
		return Model{}, err
	}
	if len(f.Coef) != int(rulers.NumDimensions) {
		return Model{}, fmt.Errorf("%w: model has %d coefficients, want %d", ErrDimensionMismatch, len(f.Coef), rulers.NumDimensions)
	}
	var inner model.Smite
	copy(inner.Coef[:], f.Coef)
	inner.Intercept = f.Intercept
	return Model{inner: inner}, nil
}
