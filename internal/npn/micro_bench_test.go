package npn

import (
	"testing"

	"dacpara/internal/tt"
)

func BenchmarkManagerBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NewManager()
	}
}

func BenchmarkCanonLookup(b *testing.B) {
	m := Shared()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := tt.Func16(i)
		_ = m.Canon(f)
		_ = m.FromCanon(f)
	}
}

func BenchmarkTransformApply(b *testing.B) {
	m := Shared()
	tr := m.ToCanon(0x1234)
	for i := 0; i < b.N; i++ {
		tr.Apply(tt.Func16(i).Wide())
	}
}
