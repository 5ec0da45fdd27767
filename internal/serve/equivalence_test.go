package serve

import (
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/kernels"
)

// testContainers trains each model once per test binary (checkpoints are
// deterministic, so sharing them across tests changes nothing).
var (
	containersOnce sync.Once
	containersMap  map[string][]byte
	containersErr  error
)

func testContainers(t testing.TB) map[string][]byte {
	containersOnce.Do(func() {
		containersMap, containersErr = TrainContainers([]string{"neumf", "mlp"}, 2, 5)
	})
	if containersErr != nil {
		t.Fatal(containersErr)
	}
	return containersMap
}

// bareReplica builds a replica without starting its loop, for direct
// forward-path testing.
func bareReplica(t testing.TB, name string, container []byte) *replica {
	r, err := newReplica(&deployment{name: name, container: container}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mkItems(inputs [][]float32) []*item {
	items := make([]*item, len(inputs))
	for i, in := range inputs {
		items[i] = &item{
			req:   dist.PredictRequest{ID: uint64(i + 1), Input: in},
			reply: make(chan dist.PredictReply, 1),
		}
	}
	return items
}

// forEachISA runs fn under every available micro-kernel ISA, restoring the
// previous selection afterwards.
func forEachISA(t *testing.T, fn func(t *testing.T)) {
	prev := kernels.ActiveISA()
	defer func() {
		if err := kernels.SetISA(prev); err != nil {
			t.Fatal(err)
		}
	}()
	for _, isa := range kernels.AvailableISAs() {
		isa := isa
		t.Run(isa, func(t *testing.T) {
			if err := kernels.SetISA(isa); err != nil {
				t.Fatal(err)
			}
			fn(t)
		})
	}
}

// TestBatchedBitwiseEqual is the core differential guarantee: for every
// model and every ISA, a request's output row from a coalesced forward pass
// is bitwise identical to the row it gets from a single-request pass. This
// is what makes dynamic batching invisible to clients — the serving
// counterpart of the training side's EST numerics contract.
func TestBatchedBitwiseEqual(t *testing.T) {
	containers := testContainers(t)
	forEachISA(t, func(t *testing.T) {
		for name, container := range map[string][]byte{"neumf": containers["neumf"], "mlp": containers["mlp"]} {
			r := bareReplica(t, name, container)
			pool, err := inputPool(name, 13)
			if err != nil {
				t.Fatal(err)
			}
			// every batch size from 2 up to a healthy coalescing width
			for _, bs := range []int{2, 3, 7, 13} {
				batched, err := r.forward(mkItems(pool[:bs]))
				if err != nil {
					t.Fatal(err)
				}
				for b := 0; b < bs; b++ {
					single, err := r.forward(mkItems(pool[b : b+1]))
					if err != nil {
						t.Fatal(err)
					}
					want, got := single.row(0), batched.row(b)
					if len(want) != len(got) {
						t.Fatalf("%s row %d: lengths %d vs %d", name, b, len(got), len(want))
					}
					for k := range want {
						if math.Float32bits(want[k]) != math.Float32bits(got[k]) {
							t.Fatalf("%s batch=%d row=%d elem=%d: batched %08x, single %08x",
								name, bs, b, k, math.Float32bits(got[k]), math.Float32bits(want[k]))
						}
					}
				}
			}
		}
	})
}

// FuzzBatchEquivalence fuzzes the same property over arbitrary inputs and
// batch compositions on the mlp model (pure float inputs: every byte string
// is a valid request). Whatever the fuzzer packs into the batch — including
// NaN and infinity payloads — each row's bits must not depend on its
// batchmates.
func FuzzBatchEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F}, uint8(2)) // NaN bits
	f.Add([]byte{}, uint8(4))
	containers := testContainers(f)
	r := bareReplica(f, "mlp", containers["mlp"])
	dim := r.sv.InDim()
	f.Fuzz(func(t *testing.T, raw []byte, nreq uint8) {
		bs := int(nreq)%7 + 2 // 2..8
		inputs := make([][]float32, bs)
		for b := range inputs {
			row := make([]float32, dim)
			for k := range row {
				off := 4 * ((b*dim + k) % (len(raw)/4 + 1))
				if off+4 <= len(raw) {
					row[k] = math.Float32frombits(binary.LittleEndian.Uint32(raw[off:]))
				} else {
					row[k] = float32(b*dim+k) * 0.01
				}
			}
			inputs[b] = row
		}
		batched, err := r.forward(mkItems(inputs))
		if err != nil {
			t.Fatalf("batched forward failed: %v", err)
		}
		for b := 0; b < bs; b++ {
			single, err := r.forward(mkItems(inputs[b : b+1]))
			if err != nil {
				t.Fatalf("single forward failed: %v", err)
			}
			want, got := single.row(0), batched.row(b)
			for k := range want {
				if math.Float32bits(want[k]) != math.Float32bits(got[k]) {
					t.Fatalf("row %d elem %d: batched %08x, single %08x",
						b, k, math.Float32bits(got[k]), math.Float32bits(want[k]))
				}
			}
		}
	})
}

// TestServeBatchDegradedPath: one poison request (out-of-vocabulary
// embedding id) must not take down its batchmates — they are retried alone
// and answered, the poison request gets an error reply.
func TestServeBatchDegradedPath(t *testing.T) {
	containers := testContainers(t)
	r := bareReplica(t, "neumf", containers["neumf"])
	pool, err := inputPool("neumf", 4)
	if err != nil {
		t.Fatal(err)
	}
	items := mkItems([][]float32{pool[0], {9e9, 9e9}, pool[1]})
	r.serveBatch(items)
	for i, it := range items {
		rep := <-it.reply
		if i == 1 {
			if rep.Err == "" {
				t.Fatal("poison request should get an error reply")
			}
			continue
		}
		if rep.Err != "" {
			t.Fatalf("batchmate %d got error: %s", i, rep.Err)
		}
		single, err := r.forward(mkItems([][]float32{it.req.Input}))
		if err != nil {
			t.Fatal(err)
		}
		want := single.row(0)
		for k := range want {
			if math.Float32bits(want[k]) != math.Float32bits(rep.Output[k]) {
				t.Fatalf("batchmate %d output changed by poison neighbor", i)
			}
		}
	}
}

// TestServeBatchInputLengthCheck: a wrong-dimension request is rejected
// before the coalesced pass, with the right reply ID.
func TestServeBatchInputLengthCheck(t *testing.T) {
	containers := testContainers(t)
	r := bareReplica(t, "mlp", containers["mlp"])
	pool, err := inputPool("mlp", 1)
	if err != nil {
		t.Fatal(err)
	}
	items := mkItems([][]float32{pool[0], {1, 2, 3}})
	r.serveBatch(items)
	if rep := <-items[0].reply; rep.Err != "" {
		t.Fatalf("valid request rejected: %s", rep.Err)
	}
	if rep := <-items[1].reply; rep.Err == "" || rep.ID != 2 {
		t.Fatalf("short request should get an ID-matched error reply, got %+v", rep)
	}
}
