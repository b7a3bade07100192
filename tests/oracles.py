"""Independent brute-force references for the tests.

Everything here recomputes expected values from the raw definitions on
dense vectors, deliberately sharing no code paths with the package
internals.  Sizes are kept small (2^N or 3^N state vectors), which is the
point: the sparse sector-restricted code must agree with the thing you
could have written in ten lines without any of the machinery.
"""

import itertools
import math

import numpy as np

# -- dense two-level (b/c) sector -------------------------------------------
# basis index = bitmask over atoms, bit j set <=> atom j in the storage level


def dense_sigma(positions, k):
    """Collective lowering (1/sqrt N) sum_j |b><c|_j e^{-i k z_j}, dense."""
    n = len(positions)
    dim = 2 ** n
    mat = np.zeros((dim, dim), dtype=complex)
    for mask in range(dim):
        for j in range(n):
            if mask & (1 << j):
                mat[mask & ~(1 << j), mask] += (
                    np.exp(-1j * k * positions[j]) / math.sqrt(n))
    return mat


def dense_population(n_atoms, level):
    if level == "c":
        diag = [bin(m).count("1") for m in range(2 ** n_atoms)]
    elif level == "b":
        diag = [n_atoms - bin(m).count("1") for m in range(2 ** n_atoms)]
    else:
        raise ValueError(level)
    return np.diag(np.array(diag, dtype=float)).astype(complex)


def dense_storage(positions, k, n_exc):
    """Normalized storage state over all index sets, straight from the sum."""
    n = len(positions)
    v = np.zeros(2 ** n, dtype=complex)
    for sites in itertools.combinations(range(n), n_exc):
        mask = sum(1 << j for j in sites)
        v[mask] = np.exp(1j * k * sum(positions[j] for j in sites))
    return v / np.linalg.norm(v)


def dense_r_ops(positions, k):
    """r1, r2, r3 built from the dense sigma by the defining combinations."""
    n = len(positions)
    s = dense_sigma(positions, k)
    sd = s.conj().T
    r1 = math.sqrt(n) / 2.0 * (sd + s)
    r2 = -1j * math.sqrt(n) / 2.0 * (sd - s)
    r3 = n / 2.0 * (sd @ s - s @ sd)
    return r1, r2, r3


def bc_ket_to_dense(ket):
    """Map a photon-free, a-free sparse ket onto the bitmask vector."""
    n = ket.space.n_atoms
    v = np.zeros(2 ** n, dtype=complex)
    for label, amp in ket.items():
        assert not label.atoms.a_sites, "b/c oracle got an a-level component"
        assert not any(label.field), "b/c oracle got a photon component"
        v[sum(1 << j for j in label.atoms.c_sites)] = amp
    return v


# -- dense three-level sector -------------------------------------------------
# digit j in base 3: 0 = b, 1 = c, 2 = a

_LEVEL_CODE = {"b": 0, "c": 1, "a": 2}


def dense_rho(positions, k, src, dst):
    """(1/N) sum_j |dst><src|_j e^{+i k z_j} over the full 3^N space."""
    n = len(positions)
    s, d = _LEVEL_CODE[src], _LEVEL_CODE[dst]
    dim = 3 ** n
    mat = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        rest = idx
        for j in range(n):
            digit = rest % 3
            rest //= 3
            if digit == s:
                mat[idx + (d - s) * 3 ** j, idx] += (
                    np.exp(1j * k * positions[j]) / n)
    return mat


def three_level_ket_to_dense(ket):
    n = ket.space.n_atoms
    v = np.zeros(3 ** n, dtype=complex)
    for label, amp in ket.items():
        assert not any(label.field), "atomic oracle got a photon component"
        idx = sum(3 ** j for j in label.atoms.c_sites)
        idx += sum(2 * 3 ** j for j in label.atoms.a_sites)
        v[idx] = amp
    return v


# -- exact propagation of a constant Hamiltonian ------------------------------


def expm_evolve(h, psi0, t):
    """exp(-i h t) psi0 for Hermitian h, via the eigendecomposition."""
    w, u = np.linalg.eigh(h)
    return u @ (np.exp(-1j * w * t) * (u.conj().T @ psi0))


def two_boson_hamiltonian(cap_a, cap_b, rabi):
    """Omega (a b^dag + a^dag b) on a (cap_a+1) x (cap_b+1) grid, dense.

    Written from the textbook ladder matrices, independent of the package.
    """
    low_a = np.zeros((cap_a + 1, cap_a + 1))
    for m in range(1, cap_a + 1):
        low_a[m - 1, m] = math.sqrt(m)
    low_b = np.zeros((cap_b + 1, cap_b + 1))
    for m in range(1, cap_b + 1):
        low_b[m - 1, m] = math.sqrt(m)
    return rabi * (np.kron(low_a, low_b.T) + np.kron(low_a.T, low_b))


# -- fixed-step RK4, straight from the stage formulas ------------------------


def closed_form_rotation(xi, omega_t):
    """The two-boson rotation of the grid xi through angle omega_t, one
    Python scalar at a time: |m, n> goes to 1/sqrt(m! n!) times the sum over
    j <= m, l <= n of C(m, j) C(n, l) cos^(m-j+n-l) (-i sin)^(j+l)
    sqrt(p! q!) |p = m - j + l, q = n - l + j>.  Each image adds its terms
    in (j, l) order and the grid adds the images in row-major (m, n) order,
    the rounding the batched closed form must reproduce bit for bit."""
    c, s = math.cos(omega_t), math.sin(omega_t)
    out = np.zeros_like(xi)
    for m, n in zip(*(idx.tolist() for idx in np.nonzero(xi))):
        pref = 1.0 / math.sqrt(math.factorial(m) * math.factorial(n))
        image = {}
        for j in range(m + 1):
            for l in range(n + 1):
                p, q = m - j + l, n - l + j
                amp = (math.comb(m, j) * math.comb(n, l)
                       * c ** ((m - j) + (n - l)) * (-1j * s) ** (j + l)
                       * math.sqrt(math.factorial(p) * math.factorial(q)))
                image[p, q] = image.get((p, q), 0j) + pref * amp
        for (p, q), amp in image.items():
            out[p, q] += xi[m, n] * amp
    return out


def field_purity(grid):
    """Tr rho_f^2 of one two-mode grid A, from the eigenvalues of the
    reduced field state rho_f = A A^dagger / Tr(A A^dagger): the partial
    trace over the second mode written as an explicit index sum, then the
    sum of the squared eigenvalues."""
    a = np.asarray(grid, dtype=complex)
    rho = np.einsum("mq,pq->mp", a, a.conj())
    rho /= np.trace(rho).real
    return float(np.sum(np.linalg.eigvalsh(rho) ** 2))


def rk4_stage_loop(h0, h1, psi0, dt, control, sample_every):
    """Plain RK4 of i dpsi/dt = (h0 + u(t) h1) psi, one stage at a time.

    ``control`` holds u on the half-step grid (2 * n_steps + 1 values).
    Returns [(step, t, psi)] at step 0, every ``sample_every`` steps and
    at the last step.
    """
    n_steps = (len(control) - 1) // 2

    def rate(v, u):
        return -1j * (h0 @ v + u * (h1 @ v))

    psi = np.array(psi0, dtype=complex)
    samples = [(0, 0.0, psi.copy())]
    for n in range(n_steps):
        u0, um, u1 = control[2 * n], control[2 * n + 1], control[2 * n + 2]
        k1 = rate(psi, u0)
        k2 = rate(psi + 0.5 * dt * k1, um)
        k3 = rate(psi + 0.5 * dt * k2, um)
        k4 = rate(psi + dt * k3, u1)
        psi = psi + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (n + 1) % sample_every == 0 or n + 1 == n_steps:
            samples.append((n + 1, (n + 1) * dt, psi.copy()))
    return samples


# -- multimode storage normalization, straight from the double sum ------------


def multimode_norm_sq(positions, wavevectors):
    """Squared norm of the coefficient-scaled multimode storage state.

    ``wavevectors`` lists one entry per excitation (mode repeated to its
    occupancy).  Direct evaluation: enumerate every ordered placement of
    the excitations on distinct atoms, collect amplitudes per atom subset,
    and sum |amplitude|^2 -- no combinatorial shortcuts.
    """
    n = len(positions)
    exc = len(wavevectors)
    occs: dict[float, int] = {}
    for k in wavevectors:
        occs[k] = occs.get(k, 0) + 1
    coeff_sq = 1.0
    for m in occs.values():
        coeff_sq *= math.factorial(m)
    denom = 1.0
    for i in range(exc):
        denom *= n - i
    coeff_sq /= denom

    amplitudes: dict[tuple[int, ...], complex] = {}
    for atoms in itertools.permutations(range(n), exc):
        key = tuple(sorted(atoms))
        phase = sum(k * positions[j] for k, j in zip(wavevectors, atoms))
        amplitudes[key] = amplitudes.get(key, 0j) + np.exp(1j * phase)
    # every distinct assignment was visited prod(m_i!) times (permuting
    # excitations of the same mode lands on the same assignment), so divide
    # the accumulated amplitude back down before squaring
    repeat = 1.0
    for m in occs.values():
        repeat *= math.factorial(m)
    return coeff_sq * sum(abs(a / repeat) ** 2 for a in amplitudes.values())


# -- a ket as a plain dict of labels ------------------------------------------


class DictKet:
    """label -> complex amplitude in a dict, with every amplitude at or
    below ``drop_tol`` dropped after each operation.

    Sums and differences go label by label; norms, inner products and
    expectations add up in sorted-label order with Python floats.  A label
    is a (field, (n_atoms, c_sites, a_sites)) tuple.
    """

    def __init__(self, entries, drop_tol=1e-15):
        self.entries = {label: complex(amp) for label, amp in entries.items()
                        if abs(complex(amp)) > drop_tol}

    def items(self):
        return sorted(self.entries.items())

    def amplitude(self, label):
        return self.entries.get(label, 0j)

    def __add__(self, other):
        out = dict(self.entries)
        for label, amp in other.entries.items():
            out[label] = out.get(label, 0j) + amp
        return DictKet(out)

    def __sub__(self, other):
        out = dict(self.entries)
        for label, amp in other.entries.items():
            out[label] = out.get(label, 0j) - amp
        return DictKet(out)

    def scaled(self, scalar):
        z = complex(scalar)
        return DictKet({label: amp * z for label, amp in self.entries.items()})

    def norm(self):
        return abs(sum(abs(amp) ** 2 for _, amp in self.items())) ** 0.5

    def inner(self, other):
        total = 0j
        for label, amp in self.items():
            if label in other.entries:
                total += amp.conjugate() * other.entries[label]
        return total

    def mean(self, count):
        """sum |amp|^2 count(label) / sum |amp|^2, 0 for the zero ket."""
        total = nn = 0.0
        for label, amp in self.items():
            w = abs(amp) ** 2
            total += w * count(label)
            nn += w
        return total / nn if nn else 0.0

    def photon_expectation(self):
        return self.mean(lambda label: sum(label[0]))

    def level_population(self, level):
        def count(label):
            n_atoms, c_sites, a_sites = label[1]
            return {"b": n_atoms - len(c_sites) - len(a_sites),
                    "c": len(c_sites), "a": len(a_sites)}[level]
        return self.mean(count)


# -- sector enumeration ------------------------------------------------------

def sector_labels(n_atoms, n_exc_max, a_max, mode_caps, photon_cap, totals):
    """Every (field, (n_atoms, c_sites, a_sites)) label of the truncated
    space whose photons + c + a lies in ``totals``, unsorted: the product
    of every atom's level with every mode's occupation, filtered by the
    caps."""
    cap = sum(mode_caps) if photon_cap is None else min(photon_cap,
                                                        sum(mode_caps))
    out = []
    for levels in itertools.product("bca", repeat=n_atoms):
        c = tuple(j for j, level in enumerate(levels) if level == "c")
        a = tuple(j for j, level in enumerate(levels) if level == "a")
        if len(c) + len(a) > n_exc_max or len(a) > a_max:
            continue
        for field in itertools.product(*(range(m + 1) for m in mode_caps)):
            if sum(field) <= cap and sum(field) + len(c) + len(a) in totals:
                out.append((field, (n_atoms, c, a)))
    return out
