package query

import (
	"errors"
	"testing"
)

// FuzzParse holds the query front end to its contract on arbitrary text:
// Parse and Compile never panic and reject only with a *query.Error (the
// one error type the HTTP layer maps to 400 invalid_argument), and a
// pipeline they accept prepares, explains and runs over a small source
// without panicking. The seed corpus (testdata/fuzz/FuzzParse) is the
// queries of parse_test.go.
func FuzzParse(f *testing.F) {
	src, _ := testSource(f, 2)
	f.Fuzz(func(t *testing.T, q string) {
		var qe *Error
		p, err := Parse(q)
		if err == nil {
			_, err = Compile(p)
		}
		if err != nil {
			if !errors.As(err, &qe) {
				t.Fatalf("%q rejected with %T (%v), want *query.Error", q, err, err)
			}
			return
		}
		pl, err := Prepare(src, q, nil)
		if err != nil {
			if !errors.As(err, &qe) {
				t.Fatalf("Prepare(%q) failed with %T (%v), want *query.Error", q, err, err)
			}
			return
		}
		_ = pl.Explain().Text()
		if _, err := pl.Run(); err != nil {
			t.Fatalf("Run(%q): %v", q, err)
		}
	})
}
