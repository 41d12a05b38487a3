package main

import (
	"strings"
	"testing"
)

func TestSelectFigs(t *testing.T) {
	ids := []string{"table1", "1", "14", "ablation"}

	sel, err := selectFigs("table1, 14", ids)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]bool{"table1": true, "14": true, "1": false, "ablation": false} {
		if sel(id) != want {
			t.Errorf("table1,14 selects %s = %v, want %v", id, sel(id), want)
		}
	}

	sel, err = selectFigs("all", ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if !sel(id) {
			t.Errorf("all does not select %s", id)
		}
	}

	// A typo anywhere in the list rejects the whole selection, naming the
	// offending id, before anything runs.
	for _, spec := range []string{"table1,1x", "bogus", "14,", ""} {
		if _, err := selectFigs(spec, ids); err == nil {
			t.Errorf("selectFigs(%q) accepted an unknown id", spec)
		}
	}
	if _, err := selectFigs("table1,1x", ids); err == nil || !strings.Contains(err.Error(), `"1x"`) {
		t.Errorf("error %v does not name the unknown id", err)
	}
}
