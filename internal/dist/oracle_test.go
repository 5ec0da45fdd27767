package dist

import (
	"fmt"

	"repro/internal/checkpoint"
)

// The allocating gradient codecs the data plane used before it decoded in
// place, kept as test oracles: they build and parse the same wire layout from
// explicit buffers, with no plan to validate against, so a test can produce
// shapes no job would and compare what the in-place decoders make of them.

func gradsPayload(step int, bufs map[int][][]float32, order []int) []byte {
	w := checkpoint.NewWriter()
	w.PutInt(step)
	w.PutInt(len(order))
	for _, vrank := range order {
		w.PutInt(vrank)
		w.PutInt(len(bufs[vrank]))
		for _, b := range bufs[vrank] {
			w.PutFloat32s(b)
		}
	}
	return w.Bytes()
}

func allocDecodeGrads(data []byte) (step int, byRank map[int][][]float32, err error) {
	r := checkpoint.NewReader(data)
	if step, err = r.Int(); err != nil {
		return
	}
	var nr int
	if nr, err = r.Int(); err != nil {
		return
	}
	if nr < 0 || nr > r.Remaining()/16 {
		return 0, nil, fmt.Errorf("dist: grads frame declares %d ranks in %d bytes", nr, r.Remaining())
	}
	byRank = make(map[int][][]float32, nr)
	for i := 0; i < nr; i++ {
		var vrank, nb int
		if vrank, err = r.Int(); err != nil {
			return
		}
		if _, dup := byRank[vrank]; dup {
			return 0, nil, fmt.Errorf("dist: duplicate virtual rank %d in grads frame", vrank)
		}
		if nb, err = r.Int(); err != nil {
			return
		}
		if nb < 0 || nb > r.Remaining()/8 {
			return 0, nil, fmt.Errorf("dist: grads frame declares %d buckets in %d bytes", nb, r.Remaining())
		}
		buckets := make([][]float32, nb)
		for b := range buckets {
			if buckets[b], err = r.Float32s(); err != nil {
				return
			}
		}
		byRank[vrank] = buckets
	}
	return
}

func bucketsPayload(buckets [][]float32) []byte {
	var w checkpoint.Writer
	encodeBuckets(&w, buckets)
	return w.Bytes()
}

func allocDecodeBuckets(data []byte) ([][]float32, error) {
	r := checkpoint.NewReader(data)
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > r.Remaining()/8 {
		return nil, fmt.Errorf("dist: buckets frame declares %d buckets in %d bytes", n, r.Remaining())
	}
	out := make([][]float32, n)
	for i := range out {
		if out[i], err = r.Float32s(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tableFor returns an empty gather table for a world of ranks and a plan with
// the given bucket lengths.
func tableFor(world int, lens ...int) *gradTable {
	t := &gradTable{lens: lens, have: make([]bool, world), bufs: make([][][]float32, world)}
	for v := range t.bufs {
		t.bufs[v] = make([][]float32, len(lens))
	}
	return t
}
