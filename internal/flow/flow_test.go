package flow

import (
	"strings"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/workload"
)

func validSpec(t *testing.T) Spec {
	t.Helper()
	s, err := DefaultClickstream(3000)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDefaultClickstreamIsValid(t *testing.T) {
	s := validSpec(t)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Layers) != 3 {
		t.Fatalf("layers = %d, want 3", len(s.Layers))
	}
	for _, kind := range []LayerKind{Ingestion, Analytics, Storage} {
		l, ok := s.Layer(kind)
		if !ok {
			t.Fatalf("missing %s layer", kind)
		}
		if l.Controller.Type != ControllerAdaptive {
			t.Fatalf("%s controller = %s, want adaptive", kind, l.Controller.Type)
		}
	}
	if _, ok := s.Layer(LayerKind("nope")); ok {
		t.Fatal("bogus layer lookup succeeded")
	}
}

func TestValidateRejectsBrokenSpecs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no name", func(s *Spec) { s.Name = "" }},
		{"missing layer", func(s *Spec) { s.Layers = s.Layers[:2] }},
		{"duplicate layer", func(s *Spec) { s.Layers = append(s.Layers, s.Layers[0]) }},
		{"bad kind", func(s *Spec) { s.Layers[0].Kind = "cache" }},
		{"no system", func(s *Spec) { s.Layers[0].System = "" }},
		{"zero min", func(s *Spec) { s.Layers[0].Min = 0 }},
		{"initial out of range", func(s *Spec) { s.Layers[0].Initial = 9999 }},
		{"bad controller type", func(s *Spec) { s.Layers[0].Controller.Type = "pid" }},
		{"adaptive without gains", func(s *Spec) { s.Layers[0].Controller.L0 = 0 }},
		{"zero window", func(s *Spec) { s.Layers[0].Controller.Window = 0 }},
		{"zero ref", func(s *Spec) { s.Layers[0].Controller.Ref = 0 }},
		{"bad workload", func(s *Spec) { s.Workload.Pattern = "chaos" }},
		{"bad prices", func(s *Spec) { s.Prices = billing.PriceBook{} }},
	}
	for _, m := range mutations {
		s := validSpec(t)
		m.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestControllerSpecVariants(t *testing.T) {
	s := validSpec(t)

	s.Layers[0].Controller = ControllerSpec{Type: ControllerFixedGain, L: 0.05, Ref: 60, Window: Duration(time.Minute)}
	if err := s.Validate(); err != nil {
		t.Fatalf("fixed-gain: %v", err)
	}
	s.Layers[0].Controller = ControllerSpec{Type: ControllerQuasiAdaptive, Forgetting: 0.95, Ref: 60, Window: Duration(time.Minute)}
	if err := s.Validate(); err != nil {
		t.Fatalf("quasi-adaptive: %v", err)
	}
	s.Layers[0].Controller = ControllerSpec{Type: ControllerRule, High: 70, Low: 30, UpFactor: 1.5, DownFactor: 0.7, Window: Duration(time.Minute)}
	if err := s.Validate(); err != nil {
		t.Fatalf("rule: %v", err)
	}
	s.Layers[0].Controller = ControllerSpec{Type: ControllerNone}
	if err := s.Validate(); err != nil {
		t.Fatalf("none: %v", err)
	}

	s.Layers[0].Controller = ControllerSpec{Type: ControllerFixedGain, Ref: 60, Window: Duration(time.Minute)}
	if err := s.Validate(); err == nil {
		t.Fatal("fixed-gain without L accepted")
	}
	s.Layers[0].Controller = ControllerSpec{Type: ControllerQuasiAdaptive, Forgetting: 2, Ref: 60, Window: Duration(time.Minute)}
	if err := s.Validate(); err == nil {
		t.Fatal("bad forgetting accepted")
	}
	s.Layers[0].Controller = ControllerSpec{Type: ControllerRule, High: 30, Low: 70, UpFactor: 1.5, DownFactor: 0.7, Window: Duration(time.Minute)}
	if err := s.Validate(); err == nil {
		t.Fatal("inverted rule thresholds accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := validSpec(t)
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"window": "2m0s"`) {
		t.Fatalf("durations not human-readable in JSON:\n%s", data)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != s.Name || len(back.Layers) != len(s.Layers) {
		t.Fatal("round trip lost data")
	}
	l0, _ := back.Layer(Ingestion)
	orig, _ := s.Layer(Ingestion)
	if l0.Controller.Window.D() != orig.Controller.Window.D() {
		t.Fatalf("window round trip: %v vs %v", l0.Controller.Window.D(), orig.Controller.Window.D())
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	if _, err := Decode([]byte(`{not json`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := Decode([]byte(`{"name":""}`)); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"5m"`)); err != nil {
		t.Fatal(err)
	}
	if d.D() != 5*time.Minute {
		t.Fatalf("parsed %v", d.D())
	}
	if err := d.UnmarshalJSON([]byte(`60000000000`)); err != nil {
		t.Fatal(err)
	}
	if d.D() != time.Minute {
		t.Fatalf("parsed int %v", d.D())
	}
	if err := d.UnmarshalJSON([]byte(`"nonsense"`)); err == nil {
		t.Fatal("bad duration string accepted")
	}
	if err := d.UnmarshalJSON([]byte(`true`)); err == nil {
		t.Fatal("bool duration accepted")
	}
}

func TestWorkloadSpecToPattern(t *testing.T) {
	h, day := Duration(time.Hour), Duration(24*time.Hour)
	cases := []struct {
		spec WorkloadSpec
		want workload.Pattern
	}{
		{WorkloadSpec{Pattern: "constant", Base: 100}, workload.Constant(100)},
		{WorkloadSpec{Pattern: "step", Base: 100, Peak: 500, At: h},
			workload.Step{Before: 100, After: 500, At: time.Hour}},
		{WorkloadSpec{Pattern: "ramp", Base: 100, Peak: 500, At: h, Length: h},
			workload.Ramp{From: 100, To: 500, Start: time.Hour, Length: time.Hour}},
		{WorkloadSpec{Pattern: "sine", Base: 100, Peak: 200, Period: h},
			workload.Sine{Base: 100, Amplitude: 100, Period: time.Hour}},
		{WorkloadSpec{Pattern: "diurnal", Base: 100, Peak: 1000, Period: day},
			workload.Diurnal{Floor: 100, Peak: 1000, Day: 24 * time.Hour}},
		{WorkloadSpec{Pattern: "spike", Base: 100, Peak: 500, Period: day, At: h, Length: Duration(10 * time.Minute), Factor: 4},
			workload.Spike{Base: workload.Diurnal{Floor: 100, Peak: 500, Day: 24 * time.Hour}, At: time.Hour, Length: 10 * time.Minute, Factor: 4}},
	}
	for _, c := range cases {
		p, err := c.spec.ToPattern()
		if err != nil {
			t.Fatalf("%s: %v", c.spec.Pattern, err)
		}
		if p != c.want {
			t.Fatalf("%s: pattern = %#v, want %#v", c.spec.Pattern, p, c.want)
		}
	}
	// Spike defaults factor to 3 when unset.
	ws := WorkloadSpec{Pattern: "spike", Base: 100, Peak: 200, Period: Duration(time.Hour), At: Duration(time.Minute), Length: Duration(time.Minute)}
	p, err := ws.ToPattern()
	if err != nil {
		t.Fatal(err)
	}
	inSpike := p.Rate(90 * time.Second)
	if inSpike <= p.Rate(0) {
		t.Fatal("default spike factor not applied")
	}
}

func TestBuilderOverrides(t *testing.T) {
	spec, err := NewBuilder("custom").
		WithWorkload(WorkloadSpec{Pattern: "constant", Base: 800}).
		WithIngestion(4, 1, 10, DefaultAdaptive(50, time.Minute, 4)).
		WithAnalytics(4, 1, 10, DefaultAdaptive(50, time.Minute, 4)).
		WithStorage(500, 100, 5000, DefaultAdaptive(50, time.Minute, 500)).
		WithPrices(billing.PriceBook{ShardHour: 1, VMHour: 2, WCUHour: 0.01, RCUHour: 0.01}).
		WithBudget(42).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if spec.BudgetPerHour != 42 || spec.Prices.VMHour != 2 {
		t.Fatal("overrides not applied")
	}
	ing, _ := spec.Layer(Ingestion)
	if ing.Initial != 4 || ing.Max != 10 {
		t.Fatal("ingestion config not applied")
	}
}

func TestBuilderRejectsIncomplete(t *testing.T) {
	_, err := NewBuilder("incomplete").
		WithIngestion(1, 1, 10, DefaultAdaptive(60, time.Minute, 4)).
		Build()
	if err == nil {
		t.Fatal("incomplete flow accepted")
	}
}

func TestDefaultAdaptiveScales(t *testing.T) {
	small := DefaultAdaptive(60, time.Minute, 4)
	large := DefaultAdaptive(60, time.Minute, 400)
	if large.L0 <= small.L0 {
		t.Fatal("gain did not scale with allocation magnitude")
	}
	if small.LMin >= small.LMax {
		t.Fatal("gain bounds inverted")
	}
}
