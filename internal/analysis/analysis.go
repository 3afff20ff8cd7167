// Package analysis is flowervet: a stdlib-only static-analysis engine
// that machine-checks this repository's concurrency and hot-path
// contracts. Five PRs in, the control plane is genuinely concurrent —
// per-flow locks, a sharded tick scheduler, an event bus publishing under
// locks, an allocation-free handle-based metric hot path — and every one
// of those contracts used to live in doc comments and reviewer memory.
// This package makes them self-enforcing.
//
// The driver (Load) resolves packages with `go list -json -deps -export`,
// parses them with go/parser and type-checks them with go/types, importing
// dependencies from the gc export data the go command already produced —
// so the module stays zero-dependency. Each registered Analyzer then walks
// the typed syntax of every module package; whole-program analyzers (lock
// order) additionally get a Finish call once every package has been seen.
//
// The analyzers and the invariants they encode:
//
//   - lockorder: derives the acquired-while-held lock graph from
//     Lock/RLock/Unlock patterns (propagated through module-internal
//     static calls) and fails on cycles or violations of the documented
//     order — metricstore store-lock before entry-lock, registry pacerMu
//     before the flow lock, and never a registry lock while holding a
//     scheduler shard or job lock.
//   - hotpath: packages on the per-tick path may not resolve metric
//     handles or build metric identities inside loops — Handle/Lookup at
//     build time only.
//   - wallclock: bans time.Now/Sleep/After/Since/... outside simtime,
//     telemetry, cmd/*, examples/* and test files — scheduler-driven code
//     takes time from the virtual clock or its tick callback.
//   - stopleak: a created Scheduler, periodic Ticket, event-bus
//     Subscription, lab Engine or flow Registry must have its
//     Stop/Close reached, or be returned/stored/handed off — the orphan
//     goroutine-owner bug class.
//   - wirejson: every exported field of an api/v1 wire struct (and of
//     structs in files marked //flowervet:wire) carries a json tag and no
//     field is interface-typed, so the wire surface cannot drift silently.
//
// Escape hatch: a finding is suppressed by a pragma comment on the same
// line or the line above:
//
//	//flowervet:allow wallclock(journal timestamps are wall time)
//
// The analyzer name is mandatory and so is the parenthesised reason — an
// allow without a stated reason is itself reported. Two marker pragmas
// extend coverage: //flowervet:hotpath (any file) opts its whole package
// into the hot-path rules, //flowervet:wire opts one file into the wire
// rules.
//
// Run it as `go run ./cmd/flowervet ./...`, or let `go test ./...` do it:
// selfcheck_test.go runs the suite over the repository's own source.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Finding is one rule violation at one source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical `file:line: analyzer:
// message` form the flowervet binary prints and the testdata harness
// matches on.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Package is one loaded, parsed and type-checked module package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// allows indexes //flowervet:allow pragmas: filename → line → set of
	// analyzer names allowed at that line.
	allows map[string]map[int]map[string]bool
	// hotpathMarked reports a //flowervet:hotpath marker anywhere in the
	// package; wireFiles holds the filenames carrying //flowervet:wire.
	hotpathMarked bool
	wireFiles     map[string]bool
	// badPragmas are malformed //flowervet: comments, reported as
	// findings of the engine itself.
	badPragmas []Finding
}

// Pass is the per-package view handed to one analyzer's Run.
type Pass struct {
	*Package
	analyzer string
	sink     *[]Finding
}

// Reportf records a finding at pos. Suppression by //flowervet:allow
// pragmas is applied centrally after every analyzer has run.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.sink = append(*p.sink, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one pluggable invariant checker.
type Analyzer interface {
	// Name is the identifier used in findings and allow pragmas.
	Name() string
	// Doc is the one-line description `flowervet -list` prints.
	Doc() string
	// Run checks one package.
	Run(p *Pass)
}

// wholeProgram is implemented by analyzers that accumulate state across
// Run calls and report only once every package has been seen.
type wholeProgram interface {
	Finish(fset *token.FileSet, report func(pos token.Pos, format string, args ...any))
}

// Analyzers returns the full registered suite, in reporting order.
func Analyzers() []Analyzer {
	return []Analyzer{
		newLockOrder(),
		newHotPath(),
		newWallClock(),
		newStopLeak(),
		newWireJSON(),
	}
}

// Run executes every analyzer over the loaded packages and returns the
// surviving findings sorted by position. Pragma-suppressed findings are
// dropped; malformed pragmas are reported as findings of the "flowervet"
// pseudo-analyzer (and cannot be suppressed).
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	var raw []Finding
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			a.Run(&Pass{Package: pkg, analyzer: a.Name(), sink: &raw})
		}
		if wp, ok := a.(wholeProgram); ok && len(pkgs) > 0 {
			fset := pkgs[0].Fset
			name := a.Name()
			wp.Finish(fset, func(pos token.Pos, format string, args ...any) {
				raw = append(raw, Finding{
					Pos:      fset.Position(pos),
					Analyzer: name,
					Message:  fmt.Sprintf(format, args...),
				})
			})
		}
	}

	allow := func(f Finding) bool {
		for _, pkg := range pkgs {
			lines, ok := pkg.allows[f.Pos.Filename]
			if !ok {
				continue
			}
			for _, ln := range [2]int{f.Pos.Line, f.Pos.Line - 1} {
				if lines[ln][f.Analyzer] {
					return true
				}
			}
		}
		return false
	}
	var out []Finding
	for _, f := range raw {
		if !allow(f) {
			out = append(out, f)
		}
	}
	for _, pkg := range pkgs {
		out = append(out, pkg.badPragmas...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// pragma parsing -----------------------------------------------------------

var (
	allowRe = regexp.MustCompile(`^//flowervet:allow\s+([a-z]+)\((.+)\)\s*$`)
)

// scanPragmas indexes every //flowervet: comment of the file into the
// package's allow/marker tables. Malformed pragmas become findings.
func (pkg *Package) scanPragmas(file *ast.File) {
	fname := pkg.Fset.Position(file.Pos()).Filename
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, "//flowervet:") {
				continue
			}
			directive := strings.TrimPrefix(text, "//flowervet:")
			switch {
			case directive == "hotpath":
				pkg.hotpathMarked = true
			case directive == "wire":
				if pkg.wireFiles == nil {
					pkg.wireFiles = map[string]bool{}
				}
				pkg.wireFiles[fname] = true
			case strings.HasPrefix(directive, "allow"):
				m := allowRe.FindStringSubmatch(text)
				if m == nil {
					pkg.badPragmas = append(pkg.badPragmas, Finding{
						Pos:      pkg.Fset.Position(c.Pos()),
						Analyzer: "flowervet",
						Message:  "malformed allow pragma: want //flowervet:allow <analyzer>(<reason>) with a non-empty reason",
					})
					continue
				}
				if pkg.allows == nil {
					pkg.allows = map[string]map[int]map[string]bool{}
				}
				lines := pkg.allows[fname]
				if lines == nil {
					lines = map[int]map[string]bool{}
					pkg.allows[fname] = lines
				}
				ln := pkg.Fset.Position(c.Pos()).Line
				if lines[ln] == nil {
					lines[ln] = map[string]bool{}
				}
				lines[ln][m[1]] = true
			default:
				pkg.badPragmas = append(pkg.badPragmas, Finding{
					Pos:      pkg.Fset.Position(c.Pos()),
					Analyzer: "flowervet",
					Message:  fmt.Sprintf("unknown flowervet pragma %q (known: allow, hotpath, wire)", directive),
				})
			}
		}
	}
}
