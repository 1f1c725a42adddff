// Package panicsafe converts panics into errors. Classification runs
// worker-pool goroutines over many independent targets; a panic in one
// of them must become an error result for that target instead of
// killing the process mid-attack (docs/ROBUSTNESS.md). Scan work items
// and repository-build workers run under Do, the detector's ctx
// classification calls recover into a PanicError themselves, and the
// recovered value travels as a *PanicError so callers can distinguish
// "this target crashed the classification" from an ordinary failure
// and re-panic where loudness is the contract.
package panicsafe

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// PanicError is a recovered panic carried through an error path.
type PanicError struct {
	// Value is the value the goroutine panicked with.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error renders the panic value; the stack is kept out of the one-line
// form (retrieve it from the field for logs).
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// Do runs fn, converting a panic into a *PanicError. An error returned
// by fn passes through unchanged.
func Do(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// DoNotify is Do with a recovery hook: notify runs only when fn
// panicked (not for ordinary errors, and not for a *PanicError fn
// merely returned from a recovery further down). Call sites use it to
// count recoveries exactly once, at the boundary that caught them.
func DoNotify(fn func() error, notify func(*PanicError)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Value: r, Stack: debug.Stack()}
			if notify != nil {
				notify(pe)
			}
			err = pe
		}
	}()
	return fn()
}

// AsPanic unwraps err to a *PanicError if one is in its chain.
func AsPanic(err error) (*PanicError, bool) {
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

// Repanic re-raises err's panic value when err carries one, restoring
// the pre-recovery behavior for call paths whose contract is to crash
// loudly (the non-context APIs). A nil or ordinary error is returned
// unchanged.
func Repanic(err error) error {
	if pe, ok := AsPanic(err); ok {
		panic(pe.Value)
	}
	return err
}
