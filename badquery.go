package trussdiv

import (
	"errors"
	"fmt"
)

// ErrBadQuery is the sentinel every *BadQueryError matches via
// errors.Is, so callers can branch on "the query itself was malformed
// for the engine it targeted" without matching message text.
var ErrBadQuery = errors.New("bad query")

// BadQueryError reports a query whose parameters are invalid for the
// engine that would serve it — today always the K contract: the fixed-k
// engines require K >= 2, the parameter-free engine (pfree) requires K
// to be left at 0. Engine is empty when the query failed validation
// before an engine was selected (e.g. K = 1, invalid for every engine).
type BadQueryError struct {
	// Engine is the engine the query was validated against ("" when the
	// failure is engine-independent).
	Engine string
	// K is the offending threshold value as given.
	K int32
	// Reason says what the contract wanted.
	Reason string
}

func (e *BadQueryError) Error() string {
	if e.Engine == "" {
		return fmt.Sprintf("trussdiv: bad query (k = %d): %s", e.K, e.Reason)
	}
	return fmt.Sprintf("trussdiv: bad query for engine %q (k = %d): %s", e.Engine, e.K, e.Reason)
}

// Is makes errors.Is(err, ErrBadQuery) match.
func (e *BadQueryError) Is(target error) bool { return target == ErrBadQuery }
