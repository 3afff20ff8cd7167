package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestReportSuitesNeverNull pins the report's JSON shape: suites marshal
// as an array even when no suite ran (an empty -suite selection), never
// as null, which broke consumers that range over the list.
func TestReportSuitesNeverNull(t *testing.T) {
	var rep report
	rep.finalize()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if strings.Contains(s, `"suites":null`) {
		t.Fatalf("suites marshalled as null: %s", s)
	}
	if !strings.Contains(s, `"suites":[]`) {
		t.Fatalf("empty suites not marshalled as []: %s", s)
	}
}
