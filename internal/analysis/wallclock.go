package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// wallClock bans reading or scheduling on the wall clock outside the
// packages that own it. The whole simulation is tick-driven from
// simtime's virtual clock; a stray time.Now in scheduler-driven code
// silently breaks reproducibility (same seed, different trace) and is
// exactly the class of bug no test catches, because tests run fast enough
// for the wall clock to look deterministic.
type wallClock struct{}

func newWallClock() *wallClock { return &wallClock{} }

func (*wallClock) Name() string { return "wallclock" }

func (*wallClock) Doc() string {
	return "bans time.Now/Sleep/After/Since/... outside simtime, telemetry, cmd/* and examples/* — scheduler-driven code takes time from the virtual clock or its tick callback"
}

// wallClockBanned is the set of time-package functions that read or
// schedule on the wall clock. Constructors like time.Date and pure
// arithmetic (Add, Sub, Duration) are fine anywhere.
var wallClockBanned = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// wallClockExempt lists the package paths that legitimately own wall
// time: the virtual clock itself (whose Epoch doc explains why it is NOT
// time.Now), the telemetry plane (which exists to measure real durations
// and hands them out via telemetry.Now/SinceNanos), and process entry
// points. The suffix match covers telemetry's golden-testdata mirror,
// which loads under a testdata-prefixed import path.
func wallClockExempt(path string) bool {
	switch path {
	case "repro/internal/simtime", "repro/internal/telemetry":
		return true
	}
	if strings.HasSuffix(path, "/internal/telemetry") {
		return true
	}
	return strings.HasPrefix(path, "repro/cmd/") || strings.HasPrefix(path, "repro/examples/")
}

func (a *wallClock) Run(p *Pass) {
	if wallClockExempt(p.Path) {
		return
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !wallClockBanned[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.Info.Uses[id].(*types.PkgName)
			if !ok || pn.Imported().Path() != "time" {
				return true
			}
			p.Reportf(call.Pos(), "time.%s outside simtime/telemetry/cmd — scheduler-driven code must take time from the virtual clock or its tick callback (or state why wall time is wanted: //flowervet:allow wallclock(reason))", sel.Sel.Name)
			return true
		})
	}
}
