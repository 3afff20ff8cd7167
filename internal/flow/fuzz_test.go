package flow

import (
	"reflect"
	"testing"
)

// FuzzDecodeSpec holds the flow-definition decoder to its contract on
// arbitrary bytes. Specs arrive from outside through POST /v1/flows,
// flowerd -spec, experiment grids and WAL replay, so Decode must never
// panic, and a spec it accepts must survive a round trip: Encode's output
// decodes again without error, to the same spec. The seed is
// DefaultClickstream's JSON.
func FuzzDecodeSpec(f *testing.F) {
	seed, err := DefaultClickstream(3000)
	if err != nil {
		f.Fatal(err)
	}
	data, err := seed.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := Decode(data)
		if err != nil {
			return
		}
		again, err := first.Encode()
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		second, err := Decode(again)
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("round trip changed the spec:\nfirst  %+v\nsecond %+v", first, second)
		}
	})
}
