package qosd

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/smite"
)

// Registry is the daemon's in-memory store of application profiles and
// the trained model. It is safe for concurrent use: reads take a shared
// lock, uploads take an exclusive one. Re-uploading a profile replaces
// the previous one by application name.
type Registry struct {
	mu       sync.RWMutex
	profiles map[string]smite.Characterization
	model    smite.Model
	hasModel bool
	// gen increments on every mutation; prediction memo keys include it so
	// cached results can never outlive the profiles they were computed from.
	gen uint64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{profiles: make(map[string]smite.Characterization)}
}

// LoadProfiles reads a persisted profile file (smite.SaveProfiles format)
// into the registry. Errors are smite's typed load errors.
func (r *Registry) LoadProfiles(src io.Reader) (added int, err error) {
	chars, err := smite.LoadProfiles(src)
	if err != nil {
		return 0, err
	}
	r.AddProfiles(chars)
	return len(chars), nil
}

// AddProfiles stores characterizations already in memory, replacing any
// existing profile with the same application name.
func (r *Registry) AddProfiles(chars []smite.Characterization) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range chars {
		r.profiles[c.App] = c
	}
	r.gen++
}

// LoadModel reads a persisted model file (smite.SaveModel format).
func (r *Registry) LoadModel(src io.Reader) error {
	m, err := smite.LoadModel(src)
	if err != nil {
		return err
	}
	r.SetModel(m)
	return nil
}

// SetModel installs a trained model.
func (r *Registry) SetModel(m smite.Model) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.model = m
	r.hasModel = true
	r.gen++
}

// Profile returns the named characterization.
func (r *Registry) Profile(app string) (smite.Characterization, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.profiles[app]
	return c, ok
}

// Model returns the trained model, or false if none is loaded.
func (r *Registry) Model() (smite.Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.model, r.hasModel
}

// modelGen returns the trained model together with the registry
// generation it belongs to, resolved under one lock so the pair stays
// consistent while uploads race. Callers that only need the model use
// Model.
func (r *Registry) modelGen() (smite.Model, uint64, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.model, r.gen, r.hasModel
}

// Len returns the number of registered profiles.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.profiles)
}

// Apps returns the registered application names, sorted.
func (r *Registry) Apps() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.profiles))
	for name := range r.profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// snapshot resolves everything one prediction needs under a single shared
// lock, so the profiles, model and generation are mutually consistent
// even while uploads race.
func (r *Registry) snapshot(victim, aggressor string) (v, a smite.Characterization, m smite.Model, gen uint64, err *APIError) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, okV := r.profiles[victim]
	if !okV {
		return v, a, m, 0, &APIError{Status: 404, Code: CodeUnknownProfile,
			Message: fmt.Sprintf("no profile registered for victim %q", victim)}
	}
	a, okA := r.profiles[aggressor]
	if !okA {
		return v, a, m, 0, &APIError{Status: 404, Code: CodeUnknownProfile,
			Message: fmt.Sprintf("no profile registered for aggressor %q", aggressor)}
	}
	if !r.hasModel {
		return v, a, m, 0, &APIError{Status: 503, Code: CodeNoModel,
			Message: "no trained model loaded"}
	}
	return v, a, r.model, r.gen, nil
}
