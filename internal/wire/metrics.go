package wire

import (
	"errors"

	"entitlement/internal/obs"
)

// Wire-layer instruments, shared by every Client and Server in the
// process: the enforcement plane aggregates per-process, not per-socket.
// Counter semantics the tests rely on (see metrics_test.go):
//
//   - dials_total counts every dial attempt (first connect and re-dials);
//     dial_failures_total the attempts that failed.
//   - reconnects_total counts only successful re-dials after the client
//     had already been connected once — an exact mirror of how many times
//     the connection actually broke and was repaired.
//   - broken_total counts connections marked broken after an in-flight
//     transport failure (the fail() path), not backoff rejections.
//   - errors_total{kind} classifies Call failures: "transient" (transport,
//     deadline, backoff gate), "overloaded" (the server shed the request
//     with a retry-after hint), "remote" (server answered with an error),
//     "other" (marshal bugs, closed client).
var (
	mClientCalls   = obs.RegisterCounterVec("entitlement_wire_client_calls_total", "RPCs issued by wire clients, by method.", "method")
	mClientCallSec = obs.RegisterHistogramVec("entitlement_wire_client_call_seconds", "Round-trip latency of wire client calls that reached the transport, by method.", "method")
	mClientErrors  = obs.RegisterCounterVec("entitlement_wire_client_errors_total", "Failed wire client calls by error classification (transient, overloaded, remote, other).", "kind")

	mClientDials      = obs.RegisterCounter("entitlement_wire_client_dials_total", "Dial attempts by wire clients (first connects and re-dials).")
	mClientDialFails  = obs.RegisterCounter("entitlement_wire_client_dial_failures_total", "Dial attempts that failed.")
	mClientReconnects = obs.RegisterCounter("entitlement_wire_client_reconnects_total", "Successful re-dials after a previously established connection broke.")
	mClientBroken     = obs.RegisterCounter("entitlement_wire_client_broken_total", "Connections marked broken after an in-flight transport failure.")
	mClientBackoff    = obs.RegisterCounter("entitlement_wire_client_backoff_rejects_total", "Calls rejected fast because the re-dial backoff gate was closed.")

	mClientInflight = obs.RegisterGauge("entitlement_wire_client_inflight_calls", "Wire client calls currently in flight.")
	mClientBytesOut = obs.RegisterCounter("entitlement_wire_client_bytes_sent_total", "Request bytes written by wire clients, including frame headers.")
	mClientBytesIn  = obs.RegisterCounter("entitlement_wire_client_bytes_received_total", "Response bytes read by wire clients, including frame headers.")

	mServerConns    = obs.RegisterGauge("entitlement_wire_server_connections", "Wire server connections currently open.")
	mServerRequests = obs.RegisterCounterVec("entitlement_wire_server_requests_total", "Requests dispatched by wire servers, by method.", "method")
	mServerErrors   = obs.RegisterCounter("entitlement_wire_server_request_errors_total", "Requests whose handler (or request decode) returned an error.")
	mServerInflight = obs.RegisterGauge("entitlement_wire_server_inflight_requests", "Wire server requests currently being handled.")
	mServerBytesIn  = obs.RegisterCounter("entitlement_wire_server_bytes_received_total", "Request bytes read by wire servers, including frame headers.")
	mServerBytesOut = obs.RegisterCounter("entitlement_wire_server_bytes_sent_total", "Response bytes written by wire servers, including frame headers.")
)

// classify maps a Call error to its errors_total{kind} label. Overload
// sheds are transient by IsTransient but get their own kind: a saturated
// server and a broken transport need different operator responses.
func classify(err error) string {
	var oe *OverloadedError
	if errors.As(err, &oe) {
		return "overloaded"
	}
	if IsTransient(err) {
		return "transient"
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return "remote"
	}
	return "other"
}
