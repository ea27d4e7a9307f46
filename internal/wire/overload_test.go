package wire

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"entitlement/internal/obs/trace"
)

// TestOverloadRoundTrip pins the shed-classification path over a real
// socket: a handler returning *Overloaded surfaces client-side as
// *OverloadedError with the retry-after hint intact, transient by
// classification, distinct from RemoteError, and stamped with the request
// id — while a plain handler error still comes back as RemoteError.
func TestOverloadRoundTrip(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("queue full")
	srv := NewServer(l, func(_ trace.Context, method string, _ Payload) (interface{}, error) {
		switch method {
		case "shed":
			return nil, &Overloaded{
				Err:        fmt.Errorf("grantd: %w", sentinel),
				RetryAfter: 750 * time.Millisecond,
			}
		case "shed-nohint":
			return nil, &Overloaded{Err: sentinel}
		case "fail":
			return nil, errors.New("deliberate failure")
		}
		return nil, fmt.Errorf("unknown method %q", method)
	}, ServerOptions{})
	defer srv.Close()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTrace("ov")

	err = c.Call("shed", nil, nil)
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("shed call returned %T (%v), want *OverloadedError", err, err)
	}
	if oe.RetryAfter != 750*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 750ms", oe.RetryAfter)
	}
	if oe.Method != "shed" || !strings.Contains(oe.Message, "queue full") {
		t.Errorf("overload error lost context: %+v", oe)
	}
	if oe.RequestID == "" || !strings.HasPrefix(oe.RequestID, "ov.") {
		t.Errorf("RequestID = %q, want the traced id", oe.RequestID)
	}
	if !IsTransient(err) {
		t.Error("overload not transient: retrying after backoff must be allowed")
	}
	var re *RemoteError
	if errors.As(err, &re) {
		t.Error("overload also matched RemoteError; callers cannot tell sheds apart")
	}
	if classify(err) != "overloaded" {
		t.Errorf("classify = %q, want overloaded", classify(err))
	}

	if err := c.Call("shed-nohint", nil, nil); !errors.As(err, &oe) {
		t.Fatalf("hintless shed returned %v", err)
	} else if oe.RetryAfter != 0 {
		t.Errorf("hintless RetryAfter = %v, want 0", oe.RetryAfter)
	}

	// A plain handler error still classifies as remote.
	err = c.Call("fail", nil, nil)
	if !errors.As(err, &re) {
		t.Fatalf("plain failure returned %T, want *RemoteError", err)
	}
	var shed *OverloadedError
	if errors.As(err, &shed) {
		t.Error("plain failure matched OverloadedError")
	}
	if classify(err) != "remote" {
		t.Errorf("classify(fail) = %q, want remote", classify(err))
	}
}
