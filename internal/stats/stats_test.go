package stats

import (
	"reflect"
	"testing"
)

func TestAddAndSum(t *testing.T) {
	a := &Counters{ReadFaults: 1, TwinsCreated: 2, DiffBytes: 10, Barriers: 3}
	b := &Counters{ReadFaults: 4, TwinsCreated: 5, DiffBytes: 20, Barriers: 6}
	tot := Sum([]*Counters{a, b})
	if tot.ReadFaults != 5 || tot.TwinsCreated != 7 || tot.DiffBytes != 30 || tot.Barriers != 9 {
		t.Fatalf("bad sum: %+v", tot)
	}
	if a.ReadFaults != 1 {
		t.Fatalf("Sum must not mutate inputs")
	}
}

// TestCountersAddEveryField gives every int64 field of two structs its own
// value and checks that Add and Sum add each one, so a counter the loop
// skipped, or added from the wrong field, shows up by name. The per-lane
// slices describe one runtime and must pass through Add untouched.
func TestCountersAddEveryField(t *testing.T) {
	var a, b Counters
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	n := 0
	for i := range av.NumField() {
		if av.Field(i).Kind() == reflect.Int64 {
			av.Field(i).SetInt(int64(i + 1))
			bv.Field(i).SetInt(int64(1000 * (i + 1)))
			n++
		}
	}
	if n < 40 {
		t.Fatalf("only %d int64 counters found", n)
	}
	lanes := []int64{7, 8}
	a.LaneBytes = lanes
	sum := Sum([]*Counters{&a, &b})
	a.Add(&b)
	for _, got := range []Counters{a, sum} {
		gv := reflect.ValueOf(got)
		for i := range gv.NumField() {
			f := gv.Type().Field(i)
			if f.Type.Kind() != reflect.Int64 {
				continue
			}
			if want := int64(1001 * (i + 1)); gv.Field(i).Int() != want {
				t.Errorf("%s = %d, want %d", f.Name, gv.Field(i).Int(), want)
			}
		}
	}
	if len(a.LaneBytes) != 2 || a.LaneBytes[0] != 7 || a.LaneBytes[1] != 8 || sum.LaneBytes != nil {
		t.Errorf("Add touched the per-lane slices: %v, sum %v", a.LaneBytes, sum.LaneBytes)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Max() != 0 || s.Last() != 0 {
		t.Fatalf("empty series should report zeros")
	}
	s.Append(1, 10)
	s.Append(2, 30)
	s.Append(3, 20)
	if s.Max() != 30 {
		t.Fatalf("Max = %d", s.Max())
	}
	if s.Last() != 20 {
		t.Fatalf("Last = %d", s.Last())
	}
	if len(s.Points) != 3 {
		t.Fatalf("Points = %d", len(s.Points))
	}
}
