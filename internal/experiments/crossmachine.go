package experiments

import (
	"context"
	"strings"

	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/workload"
)

// CrossMachineResult asks a question the paper leaves implicit by
// evaluating on both Table I machines: do the Equation 3 coefficients
// learned on one microarchitecture transfer to another, given that
// characterizations are always measured natively? If the coefficients
// mostly encode how sharing dimensions weigh against each other (rather
// than machine-specific constants), transfer should cost little accuracy.
type CrossMachineResult struct {
	// NativeErr is the test error of a model trained and tested on the
	// Ivy Bridge machine; TransferErr tests Ivy-trained coefficients on
	// Sandy Bridge-EN pairs with Sandy Bridge characterizations;
	// RetrainedErr is the Sandy Bridge-native reference.
	NativeErr    float64
	TransferErr  float64
	RetrainedErr float64
}

// CrossMachineContext runs the transfer study on the SPEC even/odd
// protocol.
func (l *Lab) CrossMachineContext(ctx context.Context) (CrossMachineResult, error) {
	train := l.specSet(workload.EvenSPEC())
	test := l.specSet(workload.OddSPEC())
	all := append(append([]*workload.Spec{}, train...), test...)

	build := func(m Machine) (trainObs, testObs []model.PairObs, err error) {
		p := l.Profiler(m)
		chars, err := p.CharacterizeAllContext(ctx, all, profile.SMT)
		if err != nil {
			return nil, nil, err
		}
		trainPairs, err := p.MeasurePairsContext(ctx, train, train, profile.SMT)
		if err != nil {
			return nil, nil, err
		}
		testPairs, err := p.MeasurePairsContext(ctx, test, test, profile.SMT)
		if err != nil {
			return nil, nil, err
		}
		trainObs, err = model.BuildObservations(chars, trainPairs)
		if err != nil {
			return nil, nil, err
		}
		testObs, err = model.BuildObservations(chars, testPairs)
		return trainObs, testObs, err
	}

	ivbTrain, ivbTest, err := build(IvyBridge)
	if err != nil {
		return CrossMachineResult{}, err
	}
	snbTrain, snbTest, err := build(SandyBridgeEN)
	if err != nil {
		return CrossMachineResult{}, err
	}

	ivbModel, err := model.TrainSmiteNNLS(ivbTrain)
	if err != nil {
		return CrossMachineResult{}, err
	}
	snbModel, err := model.TrainSmiteNNLS(snbTrain)
	if err != nil {
		return CrossMachineResult{}, err
	}

	return CrossMachineResult{
		NativeErr:    model.Evaluate(ivbModel, ivbTest).MeanAbsError,
		TransferErr:  model.Evaluate(ivbModel, snbTest).MeanAbsError,
		RetrainedErr: model.Evaluate(snbModel, snbTest).MeanAbsError,
	}, nil
}

// String renders the study.
func (r CrossMachineResult) String() string {
	var b strings.Builder
	b.WriteString("Cross-machine coefficient transfer (SPEC even-train/odd-test, SMT)\n")
	t := newTable("configuration", "test error")
	t.row("trained on IVB, tested on IVB (native)", pct(r.NativeErr))
	t.row("trained on IVB, tested on SNB-EN (transfer)", pct(r.TransferErr))
	t.row("trained on SNB-EN, tested on SNB-EN (retrained)", pct(r.RetrainedErr))
	b.WriteString(t.String())
	b.WriteString("characterizations are always measured on the target machine; only Eq.3 coefficients move\n")
	return b.String()
}
