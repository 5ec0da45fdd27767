package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestCrossEntropyKnownValue(t *testing.T) {
	ce := NewCrossEntropy()
	ctx := detCtx()
	// uniform logits → loss = log(K)
	logits := tensor.New(2, 4)
	loss := ce.Forward(ctx, logits, []int{0, 3})
	if math.Abs(float64(loss)-math.Log(4)) > 1e-5 {
		t.Fatalf("uniform CE loss = %v, want %v", loss, math.Log(4))
	}
}

func TestCrossEntropyGradNumerical(t *testing.T) {
	ce := NewCrossEntropy()
	ctx := detCtx()
	logits := randTensor(30, 3, 5)
	labels := []int{1, 4, 0}
	ce.Forward(ctx, logits, labels)
	grad := ce.Backward(ctx)
	const eps = 1e-2
	for _, i := range []int{0, 4, 7, 14} {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp := float64(NewCrossEntropy().Forward(ctx, logits, labels))
		logits.Data[i] = orig - eps
		lm := float64(NewCrossEntropy().Forward(ctx, logits, labels))
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(grad.Data[i])) > 2e-2*(math.Abs(num)+1) {
			t.Fatalf("CE grad[%d] = %v, numerical %v", i, grad.Data[i], num)
		}
	}
}

func TestCrossEntropyGradRowsSumToZero(t *testing.T) {
	ce := NewCrossEntropy()
	ctx := detCtx()
	logits := randTensor(31, 4, 6)
	ce.Forward(ctx, logits, []int{0, 1, 2, 3})
	grad := ce.Backward(ctx)
	for r := 0; r < 4; r++ {
		var sum float64
		for c := 0; c < 6; c++ {
			sum += float64(grad.At(r, c))
		}
		if math.Abs(sum) > 1e-6 {
			t.Fatalf("CE grad row %d sums to %v, want 0", r, sum)
		}
	}
}

func TestCrossEntropyBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCrossEntropy().Forward(detCtx(), tensor.New(1, 3), []int{5})
}

func TestBCEWithLogitsKnownValue(t *testing.T) {
	b := NewBCEWithLogits()
	ctx := detCtx()
	// logit 0 → sigmoid 0.5 → loss -log(0.5) regardless of target 0/1
	logits := tensor.New(2)
	target := tensor.FromData([]float32{1, 0}, 2)
	loss := b.Forward(ctx, logits, target)
	if math.Abs(float64(loss)-math.Log(2)) > 1e-5 {
		t.Fatalf("BCE loss = %v, want %v", loss, math.Log(2))
	}
	grad := b.Backward(ctx)
	// (sigmoid - target)/N = (0.5-1)/2, (0.5-0)/2
	if math.Abs(float64(grad.Data[0]+0.25)) > 1e-6 || math.Abs(float64(grad.Data[1]-0.25)) > 1e-6 {
		t.Fatalf("BCE grad = %v", grad.Data)
	}
}

func TestBCEGradNumerical(t *testing.T) {
	ctx := detCtx()
	logits := randTensor(32, 6)
	target := tensor.FromData([]float32{1, 0, 1, 1, 0, 0}, 6)
	b := NewBCEWithLogits()
	b.Forward(ctx, logits, target)
	grad := b.Backward(ctx)
	const eps = 1e-2
	for _, i := range []int{0, 2, 5} {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp := float64(NewBCEWithLogits().Forward(ctx, logits, target))
		logits.Data[i] = orig - eps
		lm := float64(NewBCEWithLogits().Forward(ctx, logits, target))
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(grad.Data[i])) > 2e-2*(math.Abs(num)+1) {
			t.Fatalf("BCE grad[%d] = %v, numerical %v", i, grad.Data[i], num)
		}
	}
}

func TestLossBackwardWithoutForwardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCrossEntropy().Backward(detCtx())
}
