"""Five-scheme lifetime comparison and sensitivity sweeps.

Drives :class:`~repro.lifetime.simulator.LifetimeSimulator` across the
paper's comparison set (Figure 13) and the two sensitivity studies:
misprediction rate (Figure 16, lifetime panel) and RBER requirement
(Figure 17, lifetime panel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import ConfigError
from repro.experiments.registry import SCHEMES
from repro.lifetime.simulator import LifetimeCurve, LifetimeSimulator
from repro.nand.chip_types import ChipProfile, profile_by_name
from repro.schemes import SCHEME_KEYS


@dataclass
class SchemeComparison:
    """Results of one multi-scheme lifetime campaign."""

    profile_name: str
    curves: Dict[str, LifetimeCurve] = field(default_factory=dict)

    def lifetime(self, key: str) -> int:
        curve = self.curves[key]
        if curve.lifetime_pec is None:
            raise ConfigError(f"{key} never crossed the requirement")
        return curve.lifetime_pec

    def improvement(self, key: str, baseline_key: str = "baseline") -> float:
        """Relative lifetime change of ``key`` vs the baseline scheme."""
        return self.curves[key].improvement_over(self.curves[baseline_key])

    def ranking(self) -> List[str]:
        """Scheme keys sorted by lifetime, best first."""
        return sorted(
            self.curves,
            key=lambda k: -(self.curves[k].lifetime_pec or 0),
        )

    def to_json_dict(self) -> Dict[str, Any]:
        """Serialize to plain JSON types; exact round-trip via
        :meth:`from_json_dict` (curve order preserved)."""
        return {
            "profile_name": self.profile_name,
            "curves": {
                key: curve.to_json_dict()
                for key, curve in self.curves.items()
            },
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "SchemeComparison":
        return cls(
            profile_name=str(data["profile_name"]),
            curves={
                str(key): LifetimeCurve.from_json_dict(curve)
                for key, curve in data["curves"].items()
            },
        )


@dataclass(frozen=True)
class _CurveJob:
    """Picklable work order for one scheme's lifetime curve."""

    profile: ChipProfile
    key: str
    block_count: int
    step: int
    seed: int
    mispredict_rate: float
    requirement: Optional[int]
    max_pec: int
    engine: str = "auto"

    def execute(self) -> LifetimeCurve:
        """Cycle one block set to failure."""
        simulator = LifetimeSimulator(
            self.profile,
            self.key,
            block_count=self.block_count,
            step=self.step,
            seed=self.seed,
            mispredict_rate=self.mispredict_rate,
            requirement=self.requirement,
            engine=self.engine,
        )
        return simulator.run(max_pec=self.max_pec)


def _builtin_profile_name(profile: ChipProfile) -> Optional[str]:
    """The registry name of ``profile``, or None for ad-hoc profiles.

    The unified cached path carries profiles *by name* (so jobs stay
    small and specs stay registry-validated); a caller-constructed
    profile that differs from the built-in registered under its name
    falls back to the direct, uncached path.
    """
    try:
        if profile_by_name(profile.name) == profile:
            return profile.name
    except ConfigError:
        pass
    return None


def compare_schemes(
    profile: ChipProfile,
    scheme_keys: Sequence[str] = SCHEME_KEYS,
    block_count: int = 48,
    step: int = 50,
    seed: int = 0xAE20,
    max_pec: int = 12000,
    requirement: Optional[int] = None,
    mispredict_rate: float = 0.0,
    executor: Optional[Any] = None,
    engine: str = "auto",
    cache: Optional[Any] = None,
    cache_dir: Optional[Any] = None,
    runner: Optional[Any] = None,
) -> SchemeComparison:
    """Run the Figure 13 campaign: one block set per erase scheme.

    A thin shim over the unified spec path: for a built-in chip
    profile the call builds a :class:`~repro.lifetime.spec.
    LifetimeSpec` and runs its jobs through
    :meth:`~repro.harness.runner.GridRunner.execute_jobs`, so flag
    calls, ``compare --spec`` files, and orchestrated campaigns share
    one cache entry per (scheme, profile) fingerprint. Pass ``cache``
    (any :class:`~repro.harness.store.ResultStore`) or ``cache_dir``
    to persist curves and crash-resume, or a pre-built ``runner`` to
    share its cache and stats across calls. Ad-hoc
    :class:`ChipProfile` objects keep the direct path (no cache — an
    unnamed profile has no stable fingerprint).

    Each scheme's block set cycles independently, so either path fans
    out through :meth:`~repro.harness.runner.GridRunner.execute_jobs`
    — pass ``executor=ProcessExecutor(n)`` to run schemes concurrently;
    results are identical to the serial run (each curve is a pure
    function of its job).

    Scheme keys resolve through :data:`repro.experiments.SCHEMES`, so
    registered plugin schemes compare alongside the built-ins; unknown
    keys fail fast with the registry's rich error before any cycling.

    ``engine`` selects the per-scheme execution path: ``auto`` (the
    default) cycles each block set through the scheme's vectorized
    batch kernel when it provides one and falls back to per-block
    object erases otherwise; ``object``/``kernel`` force one path
    (``kernel`` raises for schemes without a kernel).
    """
    from repro.harness.runner import GridRunner

    for key in scheme_keys:
        SCHEMES.get(key)
    profile_name = _builtin_profile_name(profile)
    if profile_name is not None:
        # Unified path: LifetimeSpec -> LifetimeJob -> GridRunner.
        from repro.lifetime.spec import LifetimeSpec

        spec = LifetimeSpec(
            schemes=tuple(scheme_keys),
            profile=profile_name,
            block_count=block_count,
            step=step,
            seed=seed,
            max_pec=max_pec,
            requirement=requirement,
            mispredict_rate=float(mispredict_rate),
            engine=engine,
        )
        if runner is None:
            runner = GridRunner(
                executor=executor, cache=cache, cache_dir=cache_dir
            )
        return spec.comparison(runner.execute_jobs(spec.jobs()))
    if cache is not None or cache_dir is not None or runner is not None:
        raise ConfigError(
            f"profile {profile.name!r} is not a built-in chip profile; "
            "curves for ad-hoc profiles cannot be cached"
        )
    comparison = SchemeComparison(profile_name=profile.name)
    jobs = [
        _CurveJob(
            profile=profile,
            key=key,
            block_count=block_count,
            step=step,
            seed=seed,
            mispredict_rate=mispredict_rate if key.startswith("aero") else 0.0,
            requirement=requirement,
            max_pec=max_pec,
            engine=engine,
        )
        for key in scheme_keys
    ]
    curves = GridRunner(executor=executor).execute_jobs(jobs)
    comparison.curves = dict(zip(scheme_keys, curves))
    return comparison


def misprediction_sensitivity(
    profile: ChipProfile,
    rates: Sequence[float] = (0.0, 0.01, 0.05, 0.10, 0.20),
    scheme_keys: Sequence[str] = ("aero_cons", "aero"),
    block_count: int = 32,
    step: int = 50,
    seed: int = 0xAE20,
    engine: str = "auto",
    executor: Optional[Any] = None,
    cache: Optional[Any] = None,
    cache_dir: Optional[Any] = None,
) -> Dict[float, Dict[str, LifetimeCurve]]:
    """Figure 16 (lifetime panel): inject forced mispredictions.

    Each misprediction costs one extra 0.5 ms erase pulse plus a
    verify-read; the paper finds AERO keeps ~40 % of its benefits even
    at a 20 % misprediction rate.

    Runs through the cached :class:`~repro.lifetime.spec.LifetimeJob`
    path for built-in profiles: jobs whose fingerprints coincide
    across sweep points (the misprediction rate only perturbs the
    aero schemes, so every non-aero curve is shared) execute once and
    fan out to every rate; pass ``cache``/``cache_dir`` to also reuse
    curves across sessions.
    """
    if _builtin_profile_name(profile) is None:
        results: Dict[float, Dict[str, LifetimeCurve]] = {}
        for rate in rates:
            results[rate] = {}
            for key in scheme_keys:
                simulator = LifetimeSimulator(
                    profile,
                    key,
                    block_count=block_count,
                    step=step,
                    seed=seed,
                    mispredict_rate=rate,
                    engine=engine,
                )
                results[rate][key] = simulator.run()
        return results
    from repro.harness.runner import GridRunner
    from repro.lifetime.spec import LifetimeSpec

    point_jobs = {
        rate: LifetimeSpec(
            schemes=tuple(scheme_keys),
            profile=profile.name,
            block_count=block_count,
            step=step,
            seed=seed,
            mispredict_rate=float(rate),
            engine=engine,
        ).jobs()
        for rate in rates
    }
    # Deduplicate by fingerprint across the whole sweep, then execute
    # each distinct curve exactly once.
    unique = {}
    for jobs in point_jobs.values():
        for job in jobs:
            unique.setdefault(job.fingerprint, job)
    runner = GridRunner(executor=executor, cache=cache, cache_dir=cache_dir)
    ordered = list(unique.values())
    curves = dict(
        zip(
            (job.fingerprint for job in ordered),
            runner.execute_jobs(ordered),
        )
    )
    return {
        rate: {
            key: curves[job.fingerprint]
            for key, job in zip(scheme_keys, jobs)
        }
        for rate, jobs in point_jobs.items()
    }


def requirement_sensitivity(
    profile: ChipProfile,
    requirements: Sequence[int] = (40, 50, 63),
    scheme_keys: Sequence[str] = ("baseline", "aero_cons", "aero"),
    block_count: int = 32,
    step: int = 50,
    seed: int = 0xAE20,
    engine: str = "auto",
    executor: Optional[Any] = None,
    cache: Optional[Any] = None,
    cache_dir: Optional[Any] = None,
) -> Dict[int, SchemeComparison]:
    """Figure 17 (lifetime panel): weaker ECC shrinks the margin.

    The aggressive EPT is rebuilt for each requirement (fewer safe
    skips), and every scheme's lifetime is evaluated against the same
    requirement — Baseline and AEROcons lose lifetime too, exactly as
    the paper notes.

    For built-in profiles every point runs through one shared
    :class:`~repro.harness.runner.GridRunner` on the cached
    :class:`~repro.lifetime.spec.LifetimeJob` path, so re-running a
    sweep (or widening it) against a ``cache``/``cache_dir`` only
    computes the curves it has never seen.
    """
    runner = None
    if _builtin_profile_name(profile) is not None:
        from repro.harness.runner import GridRunner

        runner = GridRunner(
            executor=executor, cache=cache, cache_dir=cache_dir
        )
    elif cache is not None or cache_dir is not None:
        raise ConfigError(
            f"profile {profile.name!r} is not a built-in chip profile; "
            "curves for ad-hoc profiles cannot be cached"
        )
    results: Dict[int, SchemeComparison] = {}
    for requirement in requirements:
        results[requirement] = compare_schemes(
            profile,
            scheme_keys=scheme_keys,
            block_count=block_count,
            step=step,
            seed=seed,
            requirement=requirement,
            engine=engine,
            executor=executor,
            runner=runner,
        )
    return results
