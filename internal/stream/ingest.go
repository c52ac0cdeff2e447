package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// The ingest log is the session's durable record of every data frame
// received from the client, verbatim: header (magic ‖ version ‖ a CRC
// frame holding the token) followed by the data frames in arrival
// order. Replaying it through the session state machine reconstructs
// the session bit-identically, which is how both a daemon restart and a
// client reconnect resume.
//
// Durability discipline: the log is fsynced through window N's events
// before window N's outcome is journaled, so a journaled outcome always
// has its inputs on disk. A torn tail (crash mid-frame or mid-buffer)
// is detected by the CRC scan and truncated away; the client simply
// re-sends from the surviving prefix, which the handshake reports.
const (
	ingestMagic   = "RVPI"
	ingestVersion = 1
)

// ingestLog is an append-only frame log for one session.
type ingestLog struct {
	f     *os.File
	bw    *bufio.Writer
	dirty bool
}

// createIngest starts a fresh log at path (truncating any previous
// one) and durably writes its header.
func createIngest(path, token string) (*ingestLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("stream: ingest log: %w", err)
	}
	hdr := []byte(ingestMagic)
	hdr = binary.AppendUvarint(hdr, ingestVersion)
	hdr = AppendFrame(hdr, []byte(token))
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("stream: ingest header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("stream: ingest sync: %w", err)
	}
	return &ingestLog{f: f, bw: bufio.NewWriter(f)}, nil
}

// append buffers one framed record (the full frame bytes, as produced
// by AppendFrame). Durability requires a later sync.
func (g *ingestLog) append(frame []byte) error {
	if _, err := g.bw.Write(frame); err != nil {
		return fmt.Errorf("stream: ingest append: %w", err)
	}
	g.dirty = true
	return nil
}

// sync flushes buffered frames and fsyncs the log.
func (g *ingestLog) sync() error {
	if !g.dirty {
		return nil
	}
	if err := g.bw.Flush(); err != nil {
		return fmt.Errorf("stream: ingest flush: %w", err)
	}
	if err := g.f.Sync(); err != nil {
		return fmt.Errorf("stream: ingest sync: %w", err)
	}
	g.dirty = false
	return nil
}

// close flushes, syncs and closes the log.
func (g *ingestLog) close() error {
	err := g.sync()
	if cerr := g.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("stream: ingest close: %w", cerr)
	}
	return err
}

// recoverIngest reads the log at path, validates the header against
// token, and returns the intact frame payloads in order plus a log
// reopened for appending with any torn tail truncated. A torn tail is
// normal after a crash and is reported, not an error; header-level
// damage or a foreign token is an error (the session cannot be
// trusted).
func recoverIngest(path, token string) (*ingestLog, [][]byte, bool, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, false, fmt.Errorf("stream: ingest log: %w", err)
	}
	br := bufio.NewReader(f)
	magic := make([]byte, len(ingestMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != ingestMagic {
		f.Close()
		return nil, nil, false, fmt.Errorf("%w: bad ingest magic", ErrProtocol)
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil || ver != ingestVersion {
		f.Close()
		return nil, nil, false, fmt.Errorf("%w: unsupported ingest version", ErrProtocol)
	}
	tok, err := ReadFrame(br)
	if err != nil || string(tok) != token {
		f.Close()
		return nil, nil, false, fmt.Errorf("%w: ingest log belongs to a different session", ErrProtocol)
	}
	// Scan frames, tracking the offset of the last intact one. br.Buffered
	// measures how far the bufio reader ran ahead of the file offset.
	offset := func() (int64, error) {
		pos, err := f.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, err
		}
		return pos - int64(br.Buffered()), nil
	}
	good, err := offset()
	if err != nil {
		f.Close()
		return nil, nil, false, fmt.Errorf("stream: ingest log: %w", err)
	}
	var payloads [][]byte
	torn := false
	for {
		payload, err := ReadFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn or corrupt tail: keep the intact prefix.
			torn = true
			break
		}
		payloads = append(payloads, payload)
		if good, err = offset(); err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("stream: ingest log: %w", err)
		}
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, false, fmt.Errorf("stream: truncating ingest tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, false, fmt.Errorf("stream: ingest log: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, false, fmt.Errorf("stream: ingest sync: %w", err)
	}
	return &ingestLog{f: f, bw: bufio.NewWriter(f)}, payloads, torn, nil
}
