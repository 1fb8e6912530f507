package pkt

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzPacketParse requires every frame Parse accepts to survive a round
// trip: marshaling the parsed packet and parsing the result must give the
// same packet, and marshaling that again the same bytes.
func FuzzPacketParse(f *testing.F) {
	flow := FiveTuple{SrcIP: IP(10, 0, 0, 1), DstIP: IP(10, 2, 0, 9), SrcPort: 1234, DstPort: 80, Proto: ProtoTCP}
	f.Add(NewTCP(flow, TCPAck, 128).Marshal())
	f.Add(NewUDP(flow, 64).Marshal())
	f.Add(NewCalc(flow, CalcSub, 9, 4).Marshal())
	f.Add(NewL2(MAC{1, 2, 3, 4, 5, 6}, MAC{6, 5, 4, 3, 2, 1}, 60).Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		p1, err := Parse(frame)
		if err != nil {
			return
		}
		b1 := p1.Marshal()
		p2, err := Parse(b1)
		if err != nil {
			t.Fatalf("re-parse of marshaled frame failed: %v\nframe % x\nmarshaled % x", err, frame, b1)
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("round trip changed the packet:\n%+v\n%+v", p1, p2)
		}
		if b2 := p2.Marshal(); !bytes.Equal(b1, b2) {
			t.Fatalf("marshal not stable:\n% x\n% x", b1, b2)
		}
	})
}
