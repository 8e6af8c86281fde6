"""Monte-Carlo coarse-grained polymers — the soma mini-kernel.

A Metropolis Monte-Carlo simulation of Gaussian (harmonic-bond) polymer
chains with a soft density-penalty field, the SOMA model class: each step
proposes random monomer displacements and accepts them with the Metropolis
rule; a density field on a grid is re-accumulated from all monomers (the
structure that SOMA replicates per MPI rank and reduces with Allreduce).

Validation targets: acceptance ratio in a sane band, detailed-balance
statistics (mean-squared bond length of a free chain matches the harmonic
prediction), and exact mass accounting in the density field.
"""

from __future__ import annotations

import numpy as np


class PolymerSystem:
    """``n_chains`` harmonic chains of ``chain_length`` monomers in a
    periodic box with a soft compressibility field."""

    def __init__(
        self,
        n_chains: int,
        chain_length: int,
        box: float = 10.0,
        bond_k: float = 1.5,
        kappa: float = 0.0,
        grid: int = 8,
        seed: int = 42,
    ) -> None:
        if n_chains < 1 or chain_length < 2:
            raise ValueError("need at least one chain of two monomers")
        self.n_chains = n_chains
        self.chain_length = chain_length
        self.box = box
        self.bond_k = bond_k
        self.kappa = kappa
        self.grid = grid
        self.rng = np.random.default_rng(seed)
        # random-walk initialization
        steps = self.rng.normal(0, 1 / np.sqrt(bond_k), (n_chains, chain_length, 3))
        steps[:, 0] = self.rng.uniform(0, box, (n_chains, 3))
        self.pos = np.cumsum(steps, axis=1)
        self.accepted = 0
        self.proposed = 0

    # --- energetics --------------------------------------------------------

    def mean_squared_bond(self) -> float:
        bonds = np.diff(self.pos, axis=1)
        return float((bonds**2).sum(axis=-1).mean())

    # --- Monte Carlo ----------------------------------------------------------

    def mc_sweep(self, step_size: float = 0.35) -> float:
        """One Metropolis sweep: propose a displacement for every monomer
        (vectorized per chain-slot to keep bond energies consistent).

        Returns the acceptance ratio of the sweep.
        """
        n, L = self.n_chains, self.chain_length
        accepted_before = self.accepted
        for slot in range(L):
            disp = self.rng.normal(0, step_size, (n, 3))
            old = self.pos[:, slot].copy()
            new = old + disp
            delta = np.zeros(n)
            if slot > 0:
                left = self.pos[:, slot - 1]
                delta += 0.5 * self.bond_k * (
                    ((new - left) ** 2).sum(1) - ((old - left) ** 2).sum(1)
                )
            if slot < L - 1:
                right = self.pos[:, slot + 1]
                delta += 0.5 * self.bond_k * (
                    ((new - right) ** 2).sum(1) - ((old - right) ** 2).sum(1)
                )
            accept = self.rng.uniform(size=n) < np.exp(-np.clip(delta, -700, 700))
            self.pos[:, slot] = np.where(accept[:, None], new, old)
            self.accepted += int(accept.sum())
            self.proposed += n
        return (self.accepted - accepted_before) / (n * L)

    # --- density field -----------------------------------------------------------

    def density_field(self) -> np.ndarray:
        """Accumulate all monomers onto the periodic grid (the replicated
        array SOMA allreduces).  Sums exactly to the monomer count."""
        g = self.grid
        cells = np.floor((self.pos.reshape(-1, 3) % self.box) / self.box * g).astype(int)
        cells = np.clip(cells, 0, g - 1)
        flat = (cells[:, 0] * g + cells[:, 1]) * g + cells[:, 2]
        field = np.bincount(flat, minlength=g**3).astype(float)
        return field.reshape(g, g, g)

    @property
    def acceptance_ratio(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0

    def theoretical_msd_bond(self) -> float:
        """Equilibrium <b^2> of a free harmonic bond: 3 / k."""
        return 3.0 / self.bond_k
