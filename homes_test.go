package adsm_test

import (
	"math"
	"strings"
	"testing"

	"adsm"
	"adsm/internal/apps"
)

func TestHomePolicyListing(t *testing.T) {
	hs := adsm.HomePolicies()
	if len(hs) < 3 {
		t.Fatalf("expected at least 3 home policies, got %v", adsm.HomePolicyNames())
	}
	seen := map[string]bool{}
	for _, h := range hs {
		seen[h.String()] = true
		if h.Description() == "" {
			t.Errorf("home policy %s has no description", h)
		}
	}
	for _, want := range []string{"static", "first-touch", "block"} {
		if !seen[want] {
			t.Errorf("home policy %s missing from listing %v", want, adsm.HomePolicyNames())
		}
	}
}

func TestParseHomePolicyRoundTrip(t *testing.T) {
	for _, h := range adsm.HomePolicies() {
		got, err := adsm.ParseHomePolicy(h.String())
		if err != nil || got != h {
			t.Errorf("ParseHomePolicy(%q) = %v, %v; want %v", h.String(), got, err, h)
		}
	}
	if h, err := adsm.ParseHomePolicy("blocked"); err != nil || h != adsm.BlockHomes {
		t.Errorf("alias blocked: got %v, %v", h, err)
	}
	if _, err := adsm.ParseHomePolicy("bogus"); err == nil ||
		!strings.Contains(err.Error(), "unknown home policy") {
		t.Errorf("unknown home policy: got %v", err)
	}
}

func runAppHome(name string, procs int, proto adsm.Protocol, home adsm.HomePolicy, tr adsm.Transport) (apps.App, *adsm.Report, error) {
	app, err := apps.New(name, true)
	if err != nil {
		return nil, nil, err
	}
	cl := adsm.NewCluster(adsm.Config{Procs: procs, Protocol: proto, HomePolicy: home, Transport: tr})
	app.Setup(cl)
	rep, err := cl.Run(app.Body)
	return app, rep, err
}

// TestHomePolicyScenarioMatrix: every home policy must produce
// sequential-identical results on the fast apps, for every home-consuming
// protocol (SW routes ownership through homes, HLRC flushes diffs to
// them) — and MW as a control, which must be bit-identical in traffic too
// since it never consults a home.
func TestHomePolicyScenarioMatrix(t *testing.T) {
	protos := []adsm.Protocol{adsm.SW, adsm.HLRC, adsm.MW}
	for _, name := range []string{"SOR", "IS"} {
		t.Run(name, func(t *testing.T) {
			seqApp, _, err := runApp(name, 1, adsm.MW)
			if err != nil {
				t.Fatal(err)
			}
			seq := seqApp.Result()
			var mwBaseline *adsm.Report
			for _, proto := range protos {
				for _, home := range adsm.HomePolicies() {
					app, rep, err := runAppHome(name, 4, proto, home, adsm.SimTransport)
					if err != nil {
						t.Fatalf("%s under %v/%v homes: %v", name, proto, home, err)
					}
					if got := app.Result(); math.Abs(got-seq) > math.Abs(seq)*1e-9 {
						t.Errorf("%s under %v/%v homes: result %v != sequential %v",
							name, proto, home, got, seq)
					}
					if proto == adsm.MW {
						if mwBaseline == nil {
							mwBaseline = rep
						} else if rep.Stats.Messages != mwBaseline.Stats.Messages ||
							rep.Stats.DataBytes != mwBaseline.Stats.DataBytes {
							t.Errorf("%s under MW/%v homes: traffic (%d msgs, %d B) differs from static (%d msgs, %d B); MW must ignore the home policy",
								name, home, rep.Stats.Messages, rep.Stats.DataBytes,
								mwBaseline.Stats.Messages, mwBaseline.Stats.DataBytes)
						}
					}
				}
			}
		})
	}
}

// TestFirstTouchHomesTCP runs first-touch homes on the in-process tcp
// mesh, where the nodes run concurrently: node 0 binds pages in its own
// table while other nodes' flushes and bind replies fill theirs. Results must match the
// sequential run; CI runs it under the race detector.
func TestFirstTouchHomesTCP(t *testing.T) {
	for _, name := range []string{"SOR", "IS"} {
		seqApp, _, err := runApp(name, 1, adsm.MW)
		if err != nil {
			t.Fatal(err)
		}
		seq := seqApp.Result()
		for _, proto := range []adsm.Protocol{adsm.HLRC, adsm.SW} {
			app, rep, err := runAppHome(name, 4, proto, adsm.FirstTouchHomes, adsm.TCPTransport)
			if err != nil {
				t.Fatalf("%s under %v/first-touch on tcp: %v", name, proto, err)
			}
			if got := app.Result(); math.Abs(got-seq) > math.Abs(seq)*1e-9 {
				t.Errorf("%s under %v/first-touch on tcp: result %v != sequential %v", name, proto, got, seq)
			}
			if rep.Stats.HomeBinds == 0 {
				t.Errorf("%s under %v/first-touch on tcp: no binding requests", name, proto)
			}
		}
	}
}

// TestHomePolicyFlushLocality pins the point of the subsystem: on a
// banded stencil (SOR), block and first-touch homes keep almost every
// HLRC diff local, strictly beating the static layout in both remote
// flush traffic and total messages.
func TestHomePolicyFlushLocality(t *testing.T) {
	reports := map[adsm.HomePolicy]*adsm.Report{}
	for _, home := range []adsm.HomePolicy{adsm.StaticHomes, adsm.FirstTouchHomes, adsm.BlockHomes} {
		_, rep, err := runAppHome("SOR", 4, adsm.HLRC, home, adsm.SimTransport)
		if err != nil {
			t.Fatal(err)
		}
		reports[home] = rep
	}
	static := reports[adsm.StaticHomes].Stats
	for _, home := range []adsm.HomePolicy{adsm.FirstTouchHomes, adsm.BlockHomes} {
		s := reports[home].Stats
		if s.HomeFlushes >= static.HomeFlushes {
			t.Errorf("%v homes: %d remote flushes, static has %d — expected a reduction",
				home, s.HomeFlushes, static.HomeFlushes)
		}
		if s.HomeFlushBytes >= static.HomeFlushBytes {
			t.Errorf("%v homes: %d flush bytes, static has %d — expected a reduction",
				home, s.HomeFlushBytes, static.HomeFlushBytes)
		}
		if s.Messages >= static.Messages {
			t.Errorf("%v homes: %d messages, static has %d — expected a reduction",
				home, s.Messages, static.Messages)
		}
	}
	if s := reports[adsm.FirstTouchHomes].Stats; s.HomeBinds == 0 {
		t.Errorf("first-touch run issued no binding requests")
	}
}
