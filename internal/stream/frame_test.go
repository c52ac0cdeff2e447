package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"testing"
)

// TestReadFrameLengthClaimBoundsAllocation: a header claiming the
// largest allowed frame, with no payload behind it, must fail as
// truncated without allocating anywhere near the claimed length.
func TestReadFrameLengthClaimBoundsAllocation(t *testing.T) {
	hdr := binary.AppendUvarint(nil, maxFrameLen)
	if len(hdr) != 4 {
		t.Fatalf("header is %d bytes, want 4", len(hdr))
	}
	br := bufio.NewReader(bytes.NewReader(hdr))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(br)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("ReadFrame = %v, want a protocol error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a %d-byte length claim allocated %d bytes, want under 1 MiB", maxFrameLen, got)
	}
}

// FuzzReadFrame hardens the frame reader every daemon client and fleet
// peer goes through: any input is either a clean end of stream, a
// protocol error, or a frame whose canonical encoding is exactly the
// bytes consumed — never a panic or a frame accepted off a non-minimal
// length or a bad CRC.
func FuzzReadFrame(f *testing.F) {
	valid := AppendFrame(nil, []byte("payload"))
	f.Add(valid)
	f.Add(AppendFrame(nil, nil))
	// A huge length claim with nothing behind it.
	f.Add(binary.AppendUvarint(nil, maxFrameLen))
	// Just over the cap.
	f.Add(binary.AppendUvarint(nil, maxFrameLen+1))
	// A non-minimal length varint (2 as 0x82 0x00) whose CRC is computed
	// over the bytes as sent, so only the canonical re-encoding rejects it.
	nonMinimal := append([]byte{0x82, 0x00}, "ab"...)
	nonMinimal = binary.LittleEndian.AppendUint32(nonMinimal, crc32.Checksum(nonMinimal, castagnoli))
	f.Add(nonMinimal)
	// A bad CRC.
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0xff
	f.Add(badCRC)
	// Two frames back to back.
	f.Add(append(append([]byte(nil), valid...), valid...))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
		switch {
		case err == io.EOF:
			if len(data) != 0 {
				t.Fatalf("io.EOF on %d bytes of input", len(data))
			}
		case err != nil:
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("error %v does not wrap ErrProtocol", err)
			}
		default:
			if frame := AppendFrame(nil, p); !bytes.HasPrefix(data, frame) {
				t.Fatalf("accepted frame %x is not the canonical encoding %x of its payload", data, frame)
			}
		}
	})
}
