package fault

import (
	"errors"
	"testing"
	"time"
)

func TestCrashPointsFireOnceInOrder(t *testing.T) {
	inj := New(Plan{CrashAppends: []int64{5, 3}}) // sorted internally
	var fired []int64
	for n := int64(1); n <= 10; n++ {
		if inj.OnAppend() {
			fired = append(fired, n)
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 5 {
		t.Fatalf("crashes fired at %v, want [3 5]", fired)
	}
	if inj.Appends() != 10 {
		t.Errorf("appends = %d", inj.Appends())
	}
}

func TestWallClockArmsOnce(t *testing.T) {
	inj := New(Plan{CrashAfter: time.Second})
	if d, ok := inj.ArmWallClock(); !ok || d != time.Second {
		t.Fatalf("first arm: %v %v", d, ok)
	}
	if _, ok := inj.ArmWallClock(); ok {
		t.Fatal("second arm must fail")
	}
	if _, ok := New(Plan{}).ArmWallClock(); ok {
		t.Fatal("no budget must not arm")
	}
}

func TestStepErrorDeterministicAndRetryable(t *testing.T) {
	a := New(Plan{Seed: 9, StepErrorRate: 0.5})
	b := New(Plan{Seed: 9, StepErrorRate: 0.5})
	faults := 0
	for seq := 1; seq <= 200; seq++ {
		ea := a.StepError("t1", seq, 0, 0)
		eb := b.StepError("t1", seq, 0, 0)
		if (ea == nil) != (eb == nil) {
			t.Fatal("same seed, same event, different decision")
		}
		if ea != nil {
			faults++
			var te *TransientError
			if !errors.As(ea, &te) || te.Seq != seq {
				t.Fatalf("wrong error shape: %v", ea)
			}
		}
	}
	if faults < 50 || faults > 150 {
		t.Errorf("rate 0.5 produced %d/200 faults", faults)
	}
	// Retries flip fresh coins: some retry of a failing step must succeed.
	inj := New(Plan{Seed: 1, StepErrorRate: 0.5})
	for seq := 1; seq <= 20; seq++ {
		cleared := false
		for try := 0; try < 40; try++ {
			if inj.StepError("t", seq, 0, try) == nil {
				cleared = true
				break
			}
		}
		if !cleared {
			t.Fatalf("step %d never cleared in 40 tries at rate 0.5", seq)
		}
	}
}

func TestStepErrorRateOne(t *testing.T) {
	inj := New(Plan{StepErrorRate: 1})
	for try := 0; try < 10; try++ {
		if inj.StepError("t", 1, 0, try) == nil {
			t.Fatal("rate 1.0 must always fail")
		}
	}
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var inj *Injector
	if inj.OnAppend() || inj.StepError("t", 1, 0, 0) != nil {
		t.Fatal("nil injector must be inert")
	}
	if _, ok := inj.ArmWallClock(); ok {
		t.Fatal("nil injector armed a crash")
	}
	if inj.TearTail() != 0 || inj.Appends() != 0 {
		t.Fatal("nil injector reported state")
	}
}

func TestPlanHelpers(t *testing.T) {
	p := Plan{CrashAppends: []int64{3}, CrashAfter: time.Second}
	if p.Crashes() != 2 {
		t.Errorf("Crashes=%d", p.Crashes())
	}
}
