package tensor

import "clusterkv/internal/rng"

// TruncatedSVD computes an approximate rank-r factorization of the n×d matrix
// a: the top-r right singular vectors V (d×r, orthonormal columns) and the
// corresponding singular values (descending). It uses subspace (block power)
// iteration on the Gram matrix aᵀa with Gram–Schmidt re-orthonormalization,
// which converges quickly for matrices with decaying spectra — exactly the
// regime of LLM key matrices that InfiniGen exploits.
//
// iters controls the number of subspace iterations (8–15 is plenty for our
// use). The rng seed makes the decomposition deterministic.
func TruncatedSVD(a *Mat, r, iters int, seed uint64) (v *Mat, sigma []float32) {
	n, d := a.Rows, a.Cols
	if r > d {
		r = d
	}
	if r > n {
		r = n
	}
	if r <= 0 {
		return NewMat(d, 0), nil
	}
	rnd := rng.New(seed)

	// V columns stored as rows of vt (r×d) for contiguous access.
	vt := NewMat(r, d)
	for i := range vt.Data {
		vt.Data[i] = rnd.NormFloat32()
	}
	orthonormalizeRows(vt)

	ap := Pack(a)
	tmp := make([]float32, n)
	next := NewMat(r, d)
	for it := 0; it < iters; it++ {
		// next_i = aᵀ (a v_i)
		for i := 0; i < r; i++ {
			ap.MatVec(tmp, vt.Row(i))
			MatTVec(next.Row(i), a, tmp)
		}
		vt, next = next, vt
		orthonormalizeRows(vt)
	}

	// Singular values: sigma_i = |a v_i|.
	sigma = make([]float32, r)
	for i := 0; i < r; i++ {
		ap.MatVec(tmp, vt.Row(i))
		sigma[i] = Norm(tmp)
	}
	// Sort by descending sigma (subspace iteration usually yields this order
	// already, but make it a guarantee).
	order := ArgsortDesc(sigma)
	sortedVT := NewMat(r, d)
	sortedSigma := make([]float32, r)
	for i, o := range order {
		copy(sortedVT.Row(i), vt.Row(o))
		sortedSigma[i] = sigma[o]
	}

	// Return V as d×r.
	v = NewMat(d, r)
	for i := 0; i < r; i++ {
		col := sortedVT.Row(i)
		for j := 0; j < d; j++ {
			v.Set(j, i, col[j])
		}
	}
	return v, sortedSigma
}

// orthonormalizeRows applies modified Gram–Schmidt to the rows of m in place.
// Rows that become numerically zero are replaced by deterministic unit basis
// vectors to keep the basis full-rank.
func orthonormalizeRows(m *Mat) {
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j := 0; j < i; j++ {
			rj := m.Row(j)
			proj := Dot(ri, rj)
			Axpy(-proj, rj, ri)
		}
		if Normalize(ri) < 1e-12 {
			Fill(ri, 0)
			ri[i%m.Cols] = 1
			for j := 0; j < i; j++ {
				proj := Dot(ri, m.Row(j))
				Axpy(-proj, m.Row(j), ri)
			}
			Normalize(ri)
		}
	}
}
