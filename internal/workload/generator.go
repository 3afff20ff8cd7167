package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/metricstore"
	"repro/internal/randx"
	"repro/internal/stream"
)

// Namespace is the metric namespace the generator publishes under.
const Namespace = "Workload/Generator"

// Metric names published each tick.
const (
	MetricTargetRate     = "TargetRate"     // pattern rate, records/s
	MetricOfferedRecords = "OfferedRecords" // records offered this tick
	MetricRejected       = "RejectedRecords"
)

// A click event's wire form is the CSV line
// "user-<user>,/page/<page>,https://example.com,flower-loadgen/1.0,<unix>",
// partitioned by its user key. Nothing downstream reads an event but that
// key's hash and the line's length, so the generator computes both from the
// event's draws and never builds the line. fixedEventBytes is the line's
// length minus its three decimal numbers.
const fixedEventBytes = len("user-,/page/,https://example.com,flower-loadgen/1.0,")

// eventBytes returns the length of the wire form of user's click on page at
// unix second unix.
func eventBytes(user int, page uint64, unix int64) int {
	n := fixedEventBytes + decimalLen(uint64(user)) + decimalLen(page)
	u := uint64(unix)
	if unix < 0 {
		n++ // the sign
		u = -u
	}
	return n + decimalLen(u)
}

// decimalLen returns the number of decimal digits in v.
func decimalLen(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// GeneratorConfig parameterises a Generator.
type GeneratorConfig struct {
	Pattern Pattern
	// Users and Pages bound the synthetic population. Users are uniform
	// (spreading partition keys across shards); pages are Zipf-skewed.
	Users, Pages int
	// ZipfS is the Zipf skew parameter (>1); default 1.2.
	ZipfS float64
	// Poisson selects stochastic arrivals: the per-tick count is drawn
	// from Poisson(rate·step). When false the count is the deterministic
	// rounded mean — useful for controller experiments that need clean
	// step inputs.
	Poisson bool
	// Seed drives all randomness in the generator.
	Seed int64
	// Start is subtracted from tick times to compute pattern-elapsed time.
	Start time.Time
	// Aggregate selects the count-based fast path: instead of synthesising
	// every click event, each tick's arrival count is distributed over the
	// destination stream's shards by sampling the multinomial the
	// per-record path induces (uniform user keys → shard weights from the
	// key population). The stream sees identical statistics at O(shards)
	// instead of O(records) cost per tick. Ignored when there is no
	// destination stream.
	Aggregate bool
}

// Generator offers each tick's click events to a stream and counts what the
// stream accepts. User IDs are uniform over the population (a website has
// many independent visitors, so partition keys spread evenly over shards);
// pages follow a Zipf distribution (a few pages get most of the traffic).
type Generator struct {
	cfg      GeneratorConfig
	rng      *rand.Rand
	pageZipf *rand.Zipf

	dest *stream.Stream
	ms   *metricstore.Store
	dims map[string]string

	// Per-tick publish handles, resolved once at construction (nil when ms
	// is nil).
	mTargetRate *metricstore.Handle
	mOffered    *metricstore.Handle
	mRejected   *metricstore.Handle

	offered  int64
	rejected int64

	// The user-key population: the per-record path reads user i's key
	// hash from it, the aggregate path its per-shard weights, recomputed
	// when the destination reshards.
	pop        *stream.KeyPopulation
	weights    []float64
	weightsGen int // dest.ReshardEvents() the weights were computed at
	eventBytes int // aggregate path: one event's size, for byte accounting
}

// NewGenerator builds a generator writing into dest. dest may be nil: Tick
// then draws and counts each tick's events without offering them.
func NewGenerator(cfg GeneratorConfig, dest *stream.Stream, ms *metricstore.Store) (*Generator, error) {
	if cfg.Pattern == nil {
		return nil, fmt.Errorf("workload: pattern is required")
	}
	if cfg.Users <= 0 {
		cfg.Users = 10000
	}
	if cfg.Pages <= 0 {
		cfg.Pages = 500
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &Generator{
		cfg:      cfg,
		rng:      rng,
		pageZipf: rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Pages-1)),
		dest:     dest,
		ms:       ms,
		dims:     map[string]string{"Generator": "clickstream"},
	}
	if ms != nil {
		g.mTargetRate = ms.MustHandle(Namespace, MetricTargetRate, g.dims)
		g.mOffered = ms.MustHandle(Namespace, MetricOfferedRecords, g.dims)
		g.mRejected = ms.MustHandle(Namespace, MetricRejected, g.dims)
	}
	return g, nil
}

// Offered reports the cumulative records offered to the stream.
func (g *Generator) Offered() int64 { return g.offered }

// Rejected reports the cumulative records the stream throttled.
func (g *Generator) Rejected() int64 { return g.rejected }

// count returns the number of arrivals for a tick at the given mean.
func (g *Generator) count(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if !g.cfg.Poisson {
		return int(math.Round(mean))
	}
	return poisson(g.rng, mean)
}

// poisson draws from Poisson(mean). Knuth's method for small means; a
// normal approximation for large ones (mean > 64) keeps it O(1).
func poisson(rng *rand.Rand, mean float64) int {
	if mean > 64 {
		n := int(math.Round(mean + math.Sqrt(mean)*rng.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// arrivals returns the number of events in the tick ending at now.
func (g *Generator) arrivals(now time.Time, step time.Duration) int {
	return g.count(g.cfg.Pattern.Rate(now.Sub(g.cfg.Start)) * step.Seconds())
}

// draw takes one event's user and page from the generator's randomness, in
// that order, and returns the user and the size of the event at now.
func (g *Generator) draw(now time.Time) (user, size int) {
	user = g.rng.Intn(g.cfg.Users)
	page := g.pageZipf.Uint64()
	return user, eventBytes(user, page, now.Unix())
}

// Tick generates this step's events and offers them to the destination
// stream, recording offered/rejected metrics. Events are partitioned by
// user ID, as the reference click-stream architecture does. In Aggregate
// mode the tick's count is offered through the stream's batch API with the
// same shard distribution, drawing nothing per event.
func (g *Generator) Tick(now time.Time, step time.Duration) {
	if g.cfg.Aggregate && g.dest != nil {
		g.tickAggregate(now, step)
		return
	}
	if g.pop == nil {
		g.pop = stream.UniformUserPopulation(g.cfg.Users)
	}
	n := g.arrivals(now, step)
	rejected := 0
	for i := 0; i < n; i++ {
		user, size := g.draw(now)
		if g.dest != nil && g.dest.PutRecord(g.pop.Hash(user), size) != nil {
			rejected++
		}
	}
	g.offered += int64(n)
	g.rejected += int64(rejected)
	g.publishTick(now, n, rejected)
}

// tickAggregate is the count-based fast path of Tick.
func (g *Generator) tickAggregate(now time.Time, step time.Duration) {
	n := g.arrivals(now, step)

	if g.pop == nil {
		g.pop = stream.UniformUserPopulation(g.cfg.Users)
		_, g.eventBytes = g.draw(now)
	}
	if gen := g.dest.ReshardEvents(); g.weights == nil || gen != g.weightsGen {
		g.weights = g.pop.Weights(g.dest.Shards())
		g.weightsGen = gen
	}

	rejected := 0
	if n > 0 {
		counts := randx.Multinomial(g.rng, n, g.weights)
		_, rej, err := g.dest.PutCounts(now, counts, g.eventBytes)
		if err != nil {
			// Shard layout changed underneath us mid-tick (cannot happen
			// with the tick scheduler, but keep the invariant anyway).
			g.weights = nil
			counts = randx.MultinomialEven(g.rng, n, g.dest.ShardCount())
			_, rej, _ = g.dest.PutCounts(now, counts, g.eventBytes)
		}
		rejected = rej
	}
	g.offered += int64(n)
	g.rejected += int64(rejected)
	g.publishTick(now, n, rejected)
}

// publishTick records the per-tick generator metrics.
func (g *Generator) publishTick(now time.Time, offered, rejected int) {
	if g.ms == nil {
		return
	}
	elapsed := now.Sub(g.cfg.Start)
	g.mTargetRate.MustAppend(now, g.cfg.Pattern.Rate(elapsed))
	g.mOffered.MustAppend(now, float64(offered))
	g.mRejected.MustAppend(now, float64(rejected))
}
