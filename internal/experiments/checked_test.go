package experiments

import (
	"context"
	"testing"
)

// TestCheckedSmokePath runs a full experiment driver with the runtime
// invariant checker enabled on every chip (profile.Options.Check), so the
// verification layer rides one of the real figure pipelines end to end: any
// conservation-law violation in any of the dozens of underlying simulation
// runs fails the experiment with a structured error.
func TestCheckedSmokePath(t *testing.T) {
	if testing.Short() {
		t.Skip("checked experiment driver in short mode")
	}
	scale := TestScale()
	scale.Options.Check = true
	l := NewLab(scale)

	fig2, err := l.Fig2FunctionalUnitsContext(context.Background())
	if err != nil {
		t.Fatalf("checked Fig2 run: %v", err)
	}
	if len(fig2.Chars) == 0 {
		t.Fatal("no characterizations")
	}

	fig9, err := l.Fig9RulerValidationContext(context.Background())
	if err != nil {
		t.Fatalf("checked Fig9 run: %v", err)
	}
	for _, fu := range fig9.FU {
		if fu.TargetUtil < 0.9999 {
			t.Errorf("%s target-port utilisation %.5f < 99.99%% under checker", fu.Name, fu.TargetUtil)
		}
	}
}
