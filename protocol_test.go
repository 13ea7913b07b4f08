package adsm_test

import (
	"math"
	"strings"
	"testing"

	"adsm"
	"adsm/internal/apps"
	"adsm/internal/core"
)

func TestProtocolRegistryListing(t *testing.T) {
	ps := adsm.Protocols()
	if len(ps) < 5 {
		t.Fatalf("expected at least 5 protocols, got %v", adsm.ProtocolNames())
	}
	seen := map[string]bool{}
	for _, p := range ps {
		seen[p.String()] = true
	}
	for _, want := range []string{"MW", "SW", "WFS", "WFS+WG", "HLRC"} {
		if !seen[want] {
			t.Errorf("protocol %s missing from listing %v", want, adsm.ProtocolNames())
		}
	}
	if adsm.HLRC.Description() == "" {
		t.Errorf("HLRC has no description")
	}
}

func TestParseProtocolRoundTrip(t *testing.T) {
	for _, p := range adsm.Protocols() {
		got, err := adsm.ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if p, err := adsm.ParseProtocol("wfswg"); err != nil || p != adsm.WFSWG {
		t.Errorf("alias wfswg: got %v, %v", p, err)
	}
	if _, err := adsm.ParseProtocol("bogus"); err == nil ||
		!strings.Contains(err.Error(), "unknown protocol") {
		t.Errorf("unknown protocol: got %v", err)
	}
}

// TestCrossProtocolScenarioMatrix asserts that every protocol
// produces the same application results as the sequential execution on
// three workloads with different sharing behaviour: SOR (barriers, no
// false sharing), IS (migratory buckets under locks) and TSP (branch and
// bound, central queue under a lock).
func TestCrossProtocolScenarioMatrix(t *testing.T) {
	for _, name := range []string{"SOR", "IS", "TSP"} {
		t.Run(name, func(t *testing.T) {
			seqApp, _, err := runApp(name, 1, adsm.MW)
			if err != nil {
				t.Fatal(err)
			}
			seq := seqApp.Result()
			for _, proto := range adsm.Protocols() {
				app, rep, err := runApp(name, 4, proto)
				if err != nil {
					t.Fatalf("%s under %v: %v", name, proto, err)
				}
				if got := app.Result(); math.Abs(got-seq) > math.Abs(seq)*1e-9 {
					t.Errorf("%s under %v: result %v != sequential %v", name, proto, got, seq)
				}
				if rep.Stats.Messages == 0 && proto != adsm.MW {
					t.Errorf("%s under %v: no communication recorded", name, proto)
				}
			}
		})
	}
}

func runApp(name string, procs int, proto adsm.Protocol) (apps.App, *adsm.Report, error) {
	return runAppEngine(name, procs, proto, nil)
}

// runAppEngine runs a quick-input app with edit applied to the engine
// parameters (nil: the default engine).
func runAppEngine(name string, procs int, proto adsm.Protocol, edit func(*core.Params)) (apps.App, *adsm.Report, error) {
	app, err := apps.New(name, true)
	if err != nil {
		return nil, nil, err
	}
	cl, err := adsm.NewClusterParams(adsm.Config{Procs: procs, Protocol: proto}, edit)
	if err != nil {
		return nil, nil, err
	}
	app.Setup(cl)
	rep, err := cl.Run(app.Body)
	return app, rep, err
}

// The test-only reference engines the equivalence tests compare the
// default engine against: internal/core.Params fields that the public
// Config does not expose.

// perWordSpans degrades every span to one protocol check per element.
func perWordSpans(p *core.Params) { p.PerWordSpans = true }

// serialSpans services a span's page fetches one blocking fault at a time.
func serialSpans(p *core.Params) { p.SpanPrefetch = false }

// frozenAt pins the adaptive meta-protocol to one static protocol.
func frozenAt(pin adsm.Protocol) func(*core.Params) {
	return func(p *core.Params) { p.AdaptiveFreeze = pin.String() }
}
