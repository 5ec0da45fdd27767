package models

import (
	"runtime/debug"
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
)

// TestBuilderParamsAreNetParams: the parameters a build hands out, in
// construction order, are the net's Params() pointer for pointer, for every
// workload, whether the builder grew its blocks, was sized by the record of
// a first build, or shared another build's values. A grown and a sized build
// from one seed draw the same weights. A shared build takes every value
// tensor of the net it shares, writes none (γ included), and takes no
// gradient or state tensor.
func TestBuilderParamsAreNetParams(t *testing.T) {
	type build struct {
		kind   string
		net    nn.Layer
		params []*nn.Parameter
	}
	for _, name := range Names() {
		grown := nn.NewBuilder(rng.NewNamed(1, name), nil, nn.Sizes{})
		net, _ := registry[name].net(grown)
		if _, _, _, err := BuildNet(name, nil, nil); err != nil { // records the sizes
			t.Fatal(err)
		}
		sizedNet, sized, _, _ := BuildNet(name, rng.NewNamed(1, name), nil)
		for i, p := range sized {
			if !p.Value.Equal(grown.Params()[i].Value) {
				t.Fatalf("%s: parameter %d differs between a grown and a sized build from one seed", name, i)
			}
			p.Value.Fill(7)
		}
		sharedNet, shared, _, _ := BuildNet(name, nil, sized)
		for _, b := range []build{{"grown", net, grown.Params()}, {"sized", sizedNet, sized}, {"shared", sharedNet, shared}} {
			want := b.net.Params()
			if len(b.params) != len(want) {
				t.Fatalf("%s %s build: %d parameters handed out, the net has %d", name, b.kind, len(b.params), len(want))
			}
			for i, p := range b.params {
				if p != want[i] {
					t.Fatalf("%s %s build: parameter %d (%s) is not the net's parameter %d (%s)", name, b.kind, i, p.Name, i, want[i].Name)
				}
			}
		}
		for i, p := range shared {
			if p.Value != sized[i].Value || p.Grad == sized[i].Grad {
				t.Fatalf("%s: shared parameter %d does not share the value alone", name, i)
			}
			if p.Value.Data[0] != 7 {
				t.Fatalf("%s: the shared build wrote parameter %d (%s)", name, i, p.Name)
			}
		}
		if st, ok := sharedNet.(nn.Stateful); ok {
			own := sizedNet.(nn.Stateful).StateTensors()
			for i, s := range st.StateTensors() {
				if s == own[i] {
					t.Fatalf("%s: shared build shares state tensor %d", name, i)
				}
			}
		}
	}
}

// layerCount counts l and the layers inside it: the layer structs a build
// allocates.
func layerCount(l nn.Layer) int {
	n := 1
	switch l := l.(type) {
	case *nn.Sequential:
		for _, c := range l.Layers {
			n += layerCount(c)
		}
	case *nn.Residual:
		n += layerCount(l.Body)
	case *nn.MultiHeadAttention:
		n += 4
	}
	return n
}

// TestBuildNetAllocsCountLayersNotParams: a build takes every parameter, its
// gradient and its Parameter struct from the builder's blocks, so what it
// allocates grows with the layers it builds, not with their parameters: one
// object a layer plus a constant (bert reads 53 for 34 layers, resnet50 34
// for 22). Each parameter used to cost five objects of its own.
func TestBuildNetAllocsCountLayersNotParams(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful uninstrumented")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, name := range []string{"bert", "resnet50"} {
		net, params, _, err := BuildNet(name, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		layers := layerCount(net)
		budget := float64(layers + 24)
		allocs := testing.AllocsPerRun(20, func() { BuildNet(name, nil, nil) })
		shared := testing.AllocsPerRun(20, func() { BuildNet(name, nil, params) })
		t.Logf("%s: %d layers, %d parameters: %v allocations, %v sharing values, budget %v", name, layers, len(params), allocs, shared, budget)
		if allocs > budget || shared > budget {
			t.Fatalf("%s builds with %v allocations (%v sharing values) for %d layers and %d parameters, budget %v",
				name, allocs, shared, layers, len(params), budget)
		}
	}
}
