package stream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"

	"repro/internal/tracefile"
	"repro/rvpredict"
	"repro/trace"
)

// Client speaks the daemon's wire protocol over one connection. It is
// the protocol layer only — dialing, reconnect backoff and resume
// orchestration live in capture.StreamTrace. Not safe for concurrent
// use.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, br: bufio.NewReader(conn)}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// Handshake opens (or resumes) the session named by token. A daemon
// refusal surfaces as a *RejectError.
func (c *Client) Handshake(token string) (Welcome, error) {
	if !validToken(token) {
		return Welcome{}, fmt.Errorf("%w: invalid session token %q", ErrProtocol, token)
	}
	if err := writeHello(c.conn, token); err != nil {
		return Welcome{}, err
	}
	return readWelcome(c.br)
}

// DefaultBatchEvents is the event-batch size used when StreamOptions
// leave it zero.
const DefaultBatchEvents = 4096

// maxLinkIndex returns the link's highest event index — the point in
// the stream after which the link may be sent.
func maxLinkIndex(ln trace.NotifyLink) int {
	m := ln.Notify
	if ln.Release > m {
		m = ln.Release
	}
	if ln.Acquire > m {
		m = ln.Acquire
	}
	return m
}

// SendTrace streams tr's metadata, events from index from, and
// wait/notify links to the daemon. Metadata is always (re)sent in full
// — the session applies it idempotently. Events go in batches of at
// most batchSize; each link is emitted immediately after the batch
// ending at its highest index, so it reaches the daemon before any
// later event — the ordering the session layer needs to keep the link
// in its window. Links are kept in their original trace order, which
// the batch windower also preserves. Around the resume boundary the
// link whose batch was the last durable frame cannot be proven
// delivered, so links from index from-1 are re-sent; the session
// deduplicates.
func (c *Client) SendTrace(tr *trace.Trace, from, batchSize int) error {
	if batchSize <= 0 {
		batchSize = DefaultBatchEvents
	}
	bw := bufio.NewWriter(c.conn)
	vols, inits, names := tracefile.CollectMeta(tr)
	for _, a := range vols {
		if err := WriteFrame(bw, volatilePayload(a)); err != nil {
			return err
		}
	}
	for _, kv := range inits {
		if err := WriteFrame(bw, initialPayload(kv.Addr, kv.Value)); err != nil {
			return err
		}
	}
	for _, nm := range names {
		if err := WriteFrame(bw, locNamePayload(nm.Loc, nm.Name)); err != nil {
			return err
		}
	}
	links := tr.NotifyLinks()
	li := 0
	resendFrom := from - 1
	if resendFrom < 0 {
		resendFrom = 0
	}
	for li < len(links) && maxLinkIndex(links[li]) < resendFrom {
		li++
	}
	cut := make(map[int]bool, len(links)-li)
	for _, ln := range links[li:] {
		cut[maxLinkIndex(ln)] = true
	}
	events := tr.Events()
	batch := make([]trace.Event, 0, batchSize)
	// flush sends the pending batch, then every link satisfiable by the
	// events sent so far (strictly below upto), in original order.
	flush := func(upto int) error {
		if len(batch) > 0 {
			if err := WriteFrame(bw, eventsPayload(batch)); err != nil {
				return err
			}
			batch = batch[:0]
		}
		for li < len(links) && maxLinkIndex(links[li]) < upto {
			if err := WriteFrame(bw, linkPayload(links[li])); err != nil {
				return err
			}
			li++
		}
		return nil
	}
	// Links at risk from the resume boundary reference only already-sent
	// events; emit them before any new event.
	if err := flush(from); err != nil {
		return err
	}
	for i := from; i < len(events); i++ {
		batch = append(batch, events[i])
		if len(batch) >= batchSize || cut[i] {
			if err := flush(i + 1); err != nil {
				return err
			}
		}
	}
	if err := flush(len(events)); err != nil {
		return err
	}
	return bw.Flush()
}

// End marks the stream complete and waits for the daemon's report —
// the blocking tail of a session, covering the final window's
// analysis.
func (c *Client) End() (*rvpredict.Report, error) {
	if err := WriteFrame(c.conn, []byte{recEnd}); err != nil {
		return nil, err
	}
	return c.ReadReport()
}

// ReadReport reads the daemon's report frame (used directly after a
// Complete welcome, when nothing is owed first).
func (c *Client) ReadReport() (*rvpredict.Report, error) {
	payload, err := ReadFrame(c.br)
	if err != nil {
		return nil, err
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return nil, err
	}
	if rec.kind != recReport {
		return nil, fmt.Errorf("%w: expected report record, got 0x%02x", ErrProtocol, rec.kind)
	}
	var rep rvpredict.Report
	if err := json.Unmarshal(rec.report, &rep); err != nil {
		return nil, fmt.Errorf("%w: undecodable report: %v", ErrProtocol, err)
	}
	return &rep, nil
}
