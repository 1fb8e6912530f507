package lang

import "testing"

// FuzzLangParse feeds arbitrary source through the whole front end — parse,
// check, translate — and requires it to return errors, never panic. The
// seeds are the test corpus's valid programs plus a few broken fragments.
func FuzzLangParse(f *testing.F) {
	for _, src := range []string{
		cacheSrc,
		"program p(<hdr.ipv4.dst, 0, 0>) { FORWARD(2); }",
		"@ m 256\nprogram c(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) { LOADI(sar, 1); HASH_5_TUPLE_MEM(m); MEMADD(m); }",
		"program b(<hdr.udp.dst_port, 9998, 0xffff>) { EXTRACT(hdr.calc.op, har); BRANCH: case(<har, 1, 0xffffffff>) { RETURN; }; DROP; }",
		"program",
		"@ m -1",
		"program p(<hdr.ipv4.dst, 0, 0>) { BRANCH: case(",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := ParseFile(src)
		if err != nil {
			return
		}
		if err := Check(file); err != nil {
			return
		}
		for _, p := range file.Programs {
			_, _ = Translate(p, file.Memories)
		}
	})
}
