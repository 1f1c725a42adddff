package faultinject

import (
	"errors"
	"testing"
	"time"
)

func TestDisabledFireIsNil(t *testing.T) {
	Reset()
	if armed.Load() {
		t.Fatal("armed with nothing enabled")
	}
	if err := Fire(ScanWorker, ""); err != nil {
		t.Fatalf("disabled Fire: %v", err)
	}
}

func TestEnableDisableReset(t *testing.T) {
	t.Cleanup(Reset)
	sentinel := errors.New("injected")
	Enable(ModelCST, Error(sentinel))
	if !armed.Load() {
		t.Fatal("not armed after Enable")
	}
	if err := Fire(ModelCST, "tgt"); !errors.Is(err, sentinel) {
		t.Fatalf("Fire = %v, want %v", err, sentinel)
	}
	// Unarmed points stay silent while another is armed.
	if err := Fire(ScanWorker, ""); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
	Disable(ModelCST)
	if armed.Load() {
		t.Fatal("armed after last Disable")
	}
	if err := Fire(ModelCST, "tgt"); err != nil {
		t.Fatalf("disabled point fired: %v", err)
	}
}

func TestPanicAction(t *testing.T) {
	t.Cleanup(Reset)
	Enable(ModelBuild, Panic("injected crash"))
	defer func() {
		if r := recover(); r != "injected crash" {
			t.Fatalf("recovered %v", r)
		}
	}()
	_ = Fire(ModelBuild, "x")
	t.Fatal("Fire did not panic")
}

func TestSleepAction(t *testing.T) {
	t.Cleanup(Reset)
	Enable(ScanWorker, Sleep(20*time.Millisecond))
	start := time.Now()
	if err := Fire(ScanWorker, ""); err != nil {
		t.Fatalf("Sleep action returned %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("slept only %v", d)
	}
}

func TestMatchAimsAtOneDetail(t *testing.T) {
	t.Cleanup(Reset)
	sentinel := errors.New("injected")
	Enable(ModelBuild, Match("target-7", Error(sentinel)))
	if err := Fire(ModelBuild, "target-3"); err != nil {
		t.Fatalf("wrong detail fired: %v", err)
	}
	if err := Fire(ModelBuild, "target-7"); !errors.Is(err, sentinel) {
		t.Fatalf("matching detail: %v", err)
	}
}

func TestOnCallFiresNthOnly(t *testing.T) {
	t.Cleanup(Reset)
	sentinel := errors.New("injected")
	Enable(ScanWorker, OnCall(3, Error(sentinel)))
	for i := 1; i <= 5; i++ {
		err := Fire(ScanWorker, "")
		if i == 3 && !errors.Is(err, sentinel) {
			t.Fatalf("call 3: %v", err)
		}
		if i != 3 && err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

func TestChainStopsAtFirstError(t *testing.T) {
	t.Cleanup(Reset)
	sentinel := errors.New("injected")
	var after bool
	Enable(ModelCST, Chain(
		Error(sentinel),
		func(Point, string) error { after = true; return nil },
	))
	if err := Fire(ModelCST, ""); !errors.Is(err, sentinel) {
		t.Fatalf("chain: %v", err)
	}
	if after {
		t.Fatal("chain continued past error")
	}
}
