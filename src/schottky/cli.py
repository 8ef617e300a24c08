"""Command line front end.

Subcommands cover domain validation, prime-function and slit-map evaluation,
proper-map construction (from zeros or from boundary data), distance and
ball-raster computation, the disconnected-ball witness search, and the
verification suites.  Exit codes: 0 success, 1 domain/validation error,
2 numerical failure, 3 witness not found.

All floating-point output is printed with 17 significant digits so that
artifacts round-trip bit-faithfully; the only randomness is the seeded
optimizer multi-start, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import verify as verify_mod
from .distance import (
    DistanceOptions,
    _atanh_checked,
    ball_raster,
    find_disconnected_ball,
    mobius_distance,
)
from .domain import CircularDomain, validate_domain
from .errors import DomainError, SchottkyError, TruncationQualityError
from .harmonic import integrals_first_kind, solve_harmonic_measures
from .prime import PrimeEvaluator
from .propermaps import (
    boundary_degree,
    boundary_modulus_deviation,
    build_proper_map,
    from_boundary_data,
    make_zero_config,
)
from .slitmaps import eta

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_NUMERICAL = 2
EXIT_NO_WITNESS = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_c(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _parse_complex(text: str) -> complex:
    """Accept 're,im' or Python-style '1+2j' literals."""
    try:
        if "," in text:
            re, im = text.split(",")
            return complex(float(re), float(im))
        return complex(text.replace("i", "j"))
    except ValueError:
        raise DomainError(f"not a complex number: {text!r}") from None


def _parse_list(text: str, convert, size: int | None = None) -> tuple:
    """The comma-separated values of a flag, each through ``convert``; a
    malformed value, or a count other than ``size``, is a DomainError."""
    try:
        values = tuple(convert(x) for x in text.split(","))
    except ValueError:
        raise DomainError(f"not a comma-separated list of {convert.__name__}: {text!r}") from None
    if size is not None and len(values) != size:
        raise DomainError(f"expected {size} comma-separated values, got {text!r}")
    return values


def _parse_point(text: str) -> tuple[int, complex]:
    """A boundary point 'circle:z'."""
    try:
        circle, z = text.split(":")
        return int(circle), _parse_complex(z)
    except ValueError:
        raise DomainError(f"not a boundary point 'circle:z': {text!r}") from None


def _parse_zeros(text: str) -> list[complex]:
    return [_parse_complex(tok) for tok in text.split()]


def _load_domain(path: str) -> CircularDomain:
    try:
        with open(path) as fh:
            return CircularDomain.from_json(fh.read())
    except OSError as exc:
        raise DomainError(f"cannot read domain file {path}: {exc}") from exc


def _toolchain(domain: CircularDomain, args):
    v = integrals_first_kind(solve_harmonic_measures(domain, order=args.basis))
    ev = PrimeEvaluator(domain, max_word_length=args.length)
    return v, ev


def _write_artifact(args, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="schottky",
        description="proper holomorphic maps and Caratheodory distances "
        "on circular domains",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    flags = {
        "length": dict(type=int, default=None,
                       help="word-ball truncation length (default adaptive)"),
        "basis": dict(type=int, default=24, help="harmonic basis order per circle"),
        "samples": dict(type=int, default=256,
                        help="boundary samples per circle for diagnostics"),
        "seed": dict(type=int, default=0, help="seed for optimizer multi-starts"),
        "output": dict(default=None, help="artifact output path"),
    }

    def common(p, *names):
        """--domain and the named shared flags: each subcommand registers
        only the flags it reads."""
        p.add_argument("--domain", required=True, help="domain JSON file")
        for name in names:
            p.add_argument(f"--{name}", **flags[name])

    p = sub.add_parser("validate", help="validate a domain file")
    p.add_argument("--domain", required=True)
    p.add_argument("--output", default=None)

    p = sub.add_parser("omega", help="evaluate the prime function")
    common(p, "length")
    p.add_argument("--z", required=True)
    p.add_argument("--y", required=True)

    p = sub.add_parser("eta", help="evaluate a slit map")
    common(p, "length")
    p.add_argument("--z", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--circle", type=int, default=0,
                   help="boundary circle mapped to the unit circle")

    p = sub.add_parser("proper-build", help="build a proper map from zeros")
    common(p, "length", "basis", "samples", "output")
    p.add_argument("--zeros", help='space-separated "re,im" pairs')
    p.add_argument("--nu", help="comma-separated boundary degrees")
    p.add_argument("--config", help="zero-config JSON file (alternative to --zeros/--nu)")

    p = sub.add_parser("proper-eval", help="build a proper map and evaluate it")
    common(p, "length", "basis", "samples", "output")
    p.add_argument("--zeros")
    p.add_argument("--nu")
    p.add_argument("--config")
    p.add_argument("--at", required=True, help="evaluation points (space separated)")

    p = sub.add_parser("from-boundary", help="proper map from boundary data")
    common(p, "length", "basis", "output")
    p.add_argument("--interior", required=True, help="interior zero p")
    p.add_argument("--points", required=True,
                   help='space-separated "circle:re,im" boundary points')
    p.add_argument("--lambdas", default=None,
                   help="comma-separated rates for the extra points")

    p = sub.add_parser("cball-dist", help="Moebius/Caratheodory distance")
    common(p, "basis", "seed", "output")
    p.add_argument("--base", required=True)
    p.add_argument("--target", required=True)

    p = sub.add_parser("cball-raster", help="distance raster with labels")
    common(p, "basis", "seed", "output")
    p.add_argument("--center", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--res", type=int, default=300)
    p.add_argument("--bbox", default="-1,-1,1,1")
    p.add_argument("--refine-cap", type=int, default=4000)

    p = sub.add_parser("find-witness", help="disconnected-ball search")
    p.add_argument("--res", type=int, default=300)
    p.add_argument("--radii", default="0.1,0.05,0.02")
    p.add_argument("--depths", default="0.05,0.02")
    p.add_argument("--basis", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.add_argument("--raster-output", default=None)

    p = sub.add_parser("verify", help="run an acceptance suite")
    p.add_argument("suite", choices=["disk", "annulus", "triply", "witness"])
    p.add_argument("--output", default=None)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except SchottkyError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "validate":
        domain = _load_domain(args.domain)
        report = validate_domain(domain)
        print(f"valid: {report.is_valid}")
        print(f"separation: {_fmt(report.separation)}")
        print(f"convergence_class: {report.convergence_class}")
        for msg in report.messages:
            print(f"note: {msg}")
        if args.output:
            _write_artifact(args, {
                "is_valid": report.is_valid,
                "separation": report.separation,
                "convergence_class": report.convergence_class,
                "messages": list(report.messages),
                "domain": domain.to_dict(),
            })
        return EXIT_OK if report.is_valid else EXIT_DOMAIN

    if cmd == "omega":
        domain = _load_domain(args.domain)
        z, y = _parse_complex(args.z), _parse_complex(args.y)
        ev = PrimeEvaluator(domain, max_word_length=args.length)
        val = ev.omega(z, y)
        print(f"omega = {_fmt_c(val)}")
        print(f"word_length = {ev.max_word_length}")
        return EXIT_OK

    if cmd == "eta":
        from .slitmaps import eta_l

        domain = _load_domain(args.domain)
        z, p = _parse_complex(args.z), _parse_complex(args.p)
        ev = PrimeEvaluator(domain, max_word_length=args.length)
        val = eta(ev, z, p) if args.circle == 0 else eta_l(ev, args.circle, z, p)
        print(f"eta_{args.circle} = {_fmt_c(complex(val))}")
        return EXIT_OK

    if cmd in ("proper-build", "proper-eval"):
        domain = _load_domain(args.domain)
        if args.config:
            from .propermaps import ZeroConfig

            try:
                with open(args.config) as fh:
                    zeros, nu = ZeroConfig.parse(fh.read())
            except OSError as exc:
                raise DomainError(f"cannot read config file: {exc}") from exc
        elif args.zeros and args.nu:
            zeros = _parse_zeros(args.zeros)
            nu = _parse_list(args.nu, int)
        else:
            raise DomainError("provide either --config or both --zeros and --nu")
        v, ev = _toolchain(domain, args)
        config = make_zero_config(v.model, zeros, nu)
        f = build_proper_map(ev, v, config)
        dev = boundary_modulus_deviation(f, args.samples)
        degrees = [boundary_degree(f, l) for l in range(domain.g + 1)]
        payload = {
            "zeros": [[z.real, z.imag] for z in f.zeros],
            "nu": list(f.nu),
            "rotation": [f.rotation.real, f.rotation.imag],
            "condition_residual": config.max_residual,
            "boundary_deviation": dev,
            "boundary_degrees": degrees,
            "word_length": ev.max_word_length,
        }
        print(f"degree = {f.degree}, windings = {degrees}")
        print(f"boundary deviation = {_fmt(dev)}")
        if cmd == "proper-eval":
            # one call per point: a batched call may round differently
            pts = _parse_zeros(args.at)
            values = [complex(f(z)) for z in pts]
            payload["values"] = [[w.real, w.imag] for w in values]
            for z, w in zip(pts, values):
                print(f"f({_fmt_c(z)}) = {_fmt_c(w)}")
        _write_artifact(args, payload)
        return EXIT_OK

    if cmd == "from-boundary":
        domain = _load_domain(args.domain)
        interior = _parse_complex(args.interior)
        points = [_parse_point(tok) for tok in args.points.split()]
        lambdas = _parse_list(args.lambdas, float) if args.lambdas else None
        v, ev = _toolchain(domain, args)
        f = from_boundary_data(ev, v, interior, points, lambdas)
        res = f.diagnostics["prescribed_point_residual"]
        print(f"prescribed-point residual = {_fmt(res)}")
        print(f"continuation t = {_fmt(f.diagnostics['t'])}")
        _write_artifact(args, {
            "nu": list(f.nu),
            "prescribed_point_residual": res,
            "t": f.diagnostics["t"],
            "interior_zero_residual": f.diagnostics["interior_zero_residual"],
        })
        return EXIT_OK

    # the distances come from Green's functions on the harmonic model alone:
    # no prime function or first-kind integrals
    if cmd == "cball-dist":
        domain = _load_domain(args.domain)
        base, target = _parse_complex(args.base), _parse_complex(args.target)
        model = solve_harmonic_measures(domain, order=args.basis)
        res = mobius_distance(model, None, None, base, target, DistanceOptions(seed=args.seed))
        try:
            c = _atanh_checked(res)
        except TruncationQualityError as exc:
            raise TruncationQualityError(f"{exc}; raise --basis") from None
        print(f"mobius distance c* = {_fmt(res.value)}")
        print(f"caratheodory distance = {_fmt(c)}")
        if res.warning:
            print(f"warning: {res.warning}")
        _write_artifact(args, {
            "c_star": res.value,
            "caratheodory": c,
            "argmax": [[z.real, z.imag] for z in res.argmax],
            "warning": res.warning,
            "evaluations": res.evaluations,
        })
        return EXIT_OK

    if cmd == "cball-raster":
        domain = _load_domain(args.domain)
        center = _parse_complex(args.center)
        bbox = _parse_list(args.bbox, float, 4)
        model = solve_harmonic_measures(domain, order=args.basis)
        opts = DistanceOptions(seed=args.seed, refine_cap=args.refine_cap)
        raster = ball_raster(model, None, None, center, args.r,
                             bbox=bbox, resolution=args.res, opts=opts)
        print(f"components: {raster.component_count()}")
        if raster.diagnostics:
            stats = raster.diagnostics
            print(f"family: {stats['family_charts'][0]} charts, {stats['family_charts'][1]} "
                  f"solved, {stats['seed_evaluations']} batched seed evaluations")
            print(f"polish: {stats['polished']} band pixels, {stats['ascent_iterations']} "
                  f"ascent iterations, {stats['chart_solves']} batched chart solves, "
                  f"{stats['capped']} stopped at the cap")
        if args.output:
            raster.to_csv(args.output)
            print(f"raster written to {args.output}")
        return EXIT_OK

    if cmd == "find-witness":
        radii = _parse_list(args.radii, float)
        depths = _parse_list(args.depths, float)
        witness = find_disconnected_ball(
            shrink_radii=radii, p_depths=depths, resolution=args.res,
            opts=DistanceOptions(seed=args.seed), order=args.basis,
        )
        print(f"witness found: {witness.found}")
        for attempt in witness.diagnostics.get("attempts", []):
            print("  " + ", ".join(f"{k}={_fmt(v) if isinstance(v, float) else v}"
                                   for k, v in attempt.items()))
        if witness.found:
            print(f"r1 = {_fmt(witness.r1)}, r2 = {_fmt(witness.r2)}, "
                  f"components = {witness.component_count}")
            if args.raster_output:
                witness.raster.to_csv(args.raster_output)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(witness.to_json() + "\n")
        return EXIT_OK if witness.found else EXIT_NO_WITNESS

    if cmd == "verify":
        results = verify_mod.run_suite(args.suite)
        failed = verify_mod.print_report(results)
        if args.output:
            _write_artifact(args, {
                "suite": args.suite,
                "results": [r.to_dict() for r in results],
            })
        return EXIT_NUMERICAL if failed else EXIT_OK

    raise DomainError(f"unknown command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
