"""Machine topology: cores grouped into NUMA domains.

HPX's thread manager "captures the machine topology at creation time" and its
Priority Local scheduler searches for work NUMA-domain by NUMA-domain
(Fig. 1).  The :class:`Machine` gives the scheduler the same information: for
every core, which cores share its NUMA domain and in what order the remaining
domains should be scanned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.platforms import PlatformSpec


@dataclass(frozen=True)
class Core:
    """One physical core; ``index`` is global, ``domain`` is its NUMA node."""

    index: int
    domain: int


@dataclass(frozen=True)
class NumaDomain:
    """A NUMA domain and the global indices of its cores."""

    index: int
    core_indices: tuple[int, ...]


@dataclass
class Machine:
    """Topology view used by the scheduler and the cost model.

    ``num_cores`` may be smaller than the platform's core count — the paper's
    strong-scaling experiments run the same node restricted to 1..N cores.
    Cores are taken domain-contiguously (cores 0..k-1 from domain 0 first),
    matching how HPX binds worker threads by default.
    """

    platform: PlatformSpec
    num_cores: int
    cores: list[Core] = field(init=False)
    domains: list[NumaDomain] = field(init=False)

    def __post_init__(self) -> None:
        if not 1 <= self.num_cores <= self.platform.cores:
            raise ValueError(
                f"num_cores={self.num_cores} outside 1..{self.platform.cores} "
                f"for {self.platform.name}"
            )
        per_domain = self.platform.cores // self.platform.numa_domains
        cores = []
        for i in range(self.num_cores):
            cores.append(Core(index=i, domain=min(i // per_domain, self.platform.numa_domains - 1)))
        self.cores = cores
        domains: dict[int, list[int]] = {}
        for core in cores:
            domains.setdefault(core.domain, []).append(core.index)
        self.domains = [
            NumaDomain(index=d, core_indices=tuple(ixs))
            for d, ixs in sorted(domains.items())
        ]

    def domain_of(self, core_index: int) -> int:
        return self.cores[core_index].domain

    def same_domain_cores(self, core_index: int) -> tuple[int, ...]:
        """Other active cores in ``core_index``'s NUMA domain, ascending."""
        d = self.domain_of(core_index)
        return tuple(
            i for i in self.domains_by_index(d).core_indices if i != core_index
        )

    def remote_domain_cores(self, core_index: int) -> tuple[int, ...]:
        """Active cores in all other domains, nearest domain first."""
        own = self.domain_of(core_index)
        out: list[int] = []
        for domain in self.domains:
            if domain.index == own:
                continue
            out.extend(domain.core_indices)
        return tuple(out)

    def domains_by_index(self, index: int) -> NumaDomain:
        for domain in self.domains:
            if domain.index == index:
                return domain
        raise KeyError(f"no active NUMA domain {index}")
