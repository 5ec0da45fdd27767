package dist

import (
	"fmt"

	"repro/internal/checkpoint"
)

// Predict wire payloads: the serving data plane rides the same framed TCP
// protocol as training. A request names a model, carries one input feature
// row, and declares a deadline budget; the reply returns the matching output
// row. IDs correlate replies with requests so a connection can pipeline.
//
// Like every decoder on this protocol, the predict codecs are bounded: every
// declared count is checked against the bytes actually present before any
// allocation, so a corrupt or hostile frame is rejected with an error rather
// than turning into an allocation bomb (FuzzDecodePredict /
// FuzzDecodePredictReply pin this, mirroring FuzzReadFrame).

// maxModelName bounds a predict frame's model-name length; zoo names are a
// dozen characters, so anything beyond this is corruption.
const maxModelName = 256

// PredictRequest is one inference request.
type PredictRequest struct {
	// ID correlates the reply on a pipelined connection.
	ID uint64
	// Model is the zoo name of the deployed model.
	Model string
	// BudgetMicros is the client's deadline budget in microseconds from
	// arrival: the server flushes any batch holding this request early
	// enough to honor it. Zero means "no deadline" (batch-size flush only).
	BudgetMicros int64
	// Input is one feature row (the model's input shape, flattened).
	Input []float32
}

// EncodePredict serializes a request for a MsgPredict frame.
func EncodePredict(q PredictRequest) []byte {
	w := checkpoint.NewWriter()
	w.PutUint64(q.ID)
	w.PutString(q.Model)
	w.PutInt(int(q.BudgetMicros))
	w.PutFloat32s(q.Input)
	return w.Bytes()
}

// DecodePredict parses a MsgPredict payload. Counts are bounded by the bytes
// present: the model name and the input row must both fit in what remains.
func DecodePredict(data []byte) (PredictRequest, error) {
	var q PredictRequest
	r := checkpoint.NewReader(data)
	q.ID, _ = r.Uint64()
	q.Model, _ = r.String()
	budget, _ := r.Int()
	q.BudgetMicros = int64(budget)
	q.Input, _ = r.Float32s() // bounds the declared count by Remaining()/4
	switch {
	case r.Err() != nil: // sticky: the first failed read above
		return q, fmt.Errorf("dist: predict frame: %w", r.Err())
	case len(q.Model) == 0 || len(q.Model) > maxModelName:
		return q, fmt.Errorf("dist: predict frame model name length %d", len(q.Model))
	case budget < 0:
		return q, fmt.Errorf("dist: predict frame budget %d negative", budget)
	case len(q.Input) == 0:
		return q, fmt.Errorf("dist: predict frame has empty input")
	case r.Remaining() != 0:
		return q, fmt.Errorf("dist: %d trailing predict frame bytes", r.Remaining())
	}
	return q, nil
}

// PredictReply is the response to one inference request.
type PredictReply struct {
	// ID echoes the request.
	ID uint64
	// Err is non-empty when the request failed (unknown model, bad input
	// geometry); Output is then empty.
	Err string
	// Output is the model's output row for this request.
	Output []float32
}

// EncodePredictReply serializes a reply for a MsgPredictReply frame.
func EncodePredictReply(p PredictReply) []byte {
	w := checkpoint.NewWriter()
	w.PutUint64(p.ID)
	w.PutString(p.Err)
	w.PutFloat32s(p.Output)
	return w.Bytes()
}

// DecodePredictReply parses a MsgPredictReply payload with the same
// bounded-count discipline as DecodePredict.
func DecodePredictReply(data []byte) (PredictReply, error) {
	var p PredictReply
	r := checkpoint.NewReader(data)
	p.ID, _ = r.Uint64()
	p.Err, _ = r.String()
	p.Output, _ = r.Float32s()
	if err := r.Err(); err != nil { // sticky: the first failed read above
		return p, fmt.Errorf("dist: predict reply frame: %w", err)
	}
	if r.Remaining() != 0 {
		return p, fmt.Errorf("dist: %d trailing predict reply bytes", r.Remaining())
	}
	return p, nil
}
