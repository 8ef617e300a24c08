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
import math
import sys

from . import verify as verify_mod
from .distance import (
    BallRaster,
    DistanceOptions,
    ball_raster,
    find_disconnected_ball,
    mobius_distance,
)
from .domain import CircularDomain, validate_domain
from .errors import DomainError, SchottkyError
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
    if "," in text:
        re, im = text.split(",")
        return complex(float(re), float(im))
    return complex(text.replace("i", "j"))


def _parse_zeros(text: str) -> list[complex]:
    return [_parse_complex(tok) for tok in text.split()]


def _load_domain(path: str) -> CircularDomain:
    try:
        with open(path) as fh:
            return CircularDomain.from_json(fh.read())
    except OSError as exc:
        raise DomainError(f"cannot read domain file {path}: {exc}") from exc


def _toolchain(domain: CircularDomain, args):
    model = solve_harmonic_measures(domain, order=args.basis)
    v = integrals_first_kind(model) if domain.g else None
    ev = PrimeEvaluator(domain, max_word_length=args.length)
    return model, v, ev


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

    def common(p, domain=True):
        if domain:
            p.add_argument("--domain", required=True, help="domain JSON file")
        p.add_argument("--length", type=int, default=None,
                       help="word-ball truncation length (default adaptive)")
        p.add_argument("--basis", type=int, default=24,
                       help="harmonic basis order per circle")
        p.add_argument("--samples", type=int, default=256,
                       help="boundary samples per circle for diagnostics")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for optimizer multi-starts")
        p.add_argument("--output", default=None, help="artifact output path")

    p = sub.add_parser("validate", help="validate a domain file")
    p.add_argument("--domain", required=True)
    p.add_argument("--output", default=None)

    p = sub.add_parser("omega", help="evaluate the prime function")
    common(p)
    p.add_argument("--z", required=True)
    p.add_argument("--y", required=True)

    p = sub.add_parser("eta", help="evaluate a slit map")
    common(p)
    p.add_argument("--z", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--circle", type=int, default=0,
                   help="boundary circle mapped to the unit circle")

    p = sub.add_parser("proper-build", help="build a proper map from zeros")
    common(p)
    p.add_argument("--zeros", help='space-separated "re,im" pairs')
    p.add_argument("--nu", help="comma-separated boundary degrees")
    p.add_argument("--config", help="zero-config JSON file (alternative to --zeros/--nu)")

    p = sub.add_parser("proper-eval", help="build a proper map and evaluate it")
    common(p)
    p.add_argument("--zeros")
    p.add_argument("--nu")
    p.add_argument("--config")
    p.add_argument("--at", required=True, help="evaluation points (space separated)")

    p = sub.add_parser("from-boundary", help="proper map from boundary data")
    common(p)
    p.add_argument("--interior", required=True, help="interior zero p")
    p.add_argument("--points", required=True,
                   help='space-separated "circle:re,im" boundary points')
    p.add_argument("--lambdas", default=None,
                   help="comma-separated rates for the extra points")
    p.add_argument("--horizon", type=float, default=0.05)

    p = sub.add_parser("cball-dist", help="Moebius/Caratheodory distance")
    common(p)
    p.add_argument("--base", required=True)
    p.add_argument("--target", required=True)

    p = sub.add_parser("cball-raster", help="distance raster with labels")
    common(p)
    p.add_argument("--center", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--res", type=int, default=300)
    p.add_argument("--bbox", default="-1,-1,1,1")
    p.add_argument("--refine-cap", type=int, default=4000)

    p = sub.add_parser("find-witness", help="disconnected-ball search")
    p.add_argument("--res", type=int, default=300)
    p.add_argument("--radii", default="0.1,0.05,0.02")
    p.add_argument("--depths", default="0.05,0.02")
    p.add_argument("--length", type=int, default=4)
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
        ev = PrimeEvaluator(domain, max_word_length=args.length)
        val = ev.omega(_parse_complex(args.z), _parse_complex(args.y))
        print(f"omega = {_fmt_c(val)}")
        print(f"word_length = {ev.max_word_length}")
        return EXIT_OK

    if cmd == "eta":
        from .slitmaps import eta_l

        domain = _load_domain(args.domain)
        ev = PrimeEvaluator(domain, max_word_length=args.length)
        z, p = _parse_complex(args.z), _parse_complex(args.p)
        val = eta(ev, z, p) if args.circle == 0 else eta_l(ev, args.circle, z, p)
        print(f"eta_{args.circle} = {_fmt_c(complex(val))}")
        return EXIT_OK

    if cmd in ("proper-build", "proper-eval"):
        domain = _load_domain(args.domain)
        model, v, ev = _toolchain(domain, args)
        if args.config:
            from .propermaps import ZeroConfig

            try:
                with open(args.config) as fh:
                    zeros, nu = ZeroConfig.parse(fh.read())
            except OSError as exc:
                raise DomainError(f"cannot read config file: {exc}") from exc
        elif args.zeros and args.nu:
            zeros = _parse_zeros(args.zeros)
            nu = tuple(int(x) for x in args.nu.split(","))
        else:
            raise DomainError("provide either --config or both --zeros and --nu")
        config = make_zero_config(model, zeros, nu)
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
            pts = _parse_zeros(args.at)
            payload["values"] = [[complex(f(z)).real, complex(f(z)).imag] for z in pts]
            for z in pts:
                print(f"f({_fmt_c(z)}) = {_fmt_c(complex(f(z)))}")
        _write_artifact(args, payload)
        return EXIT_OK

    if cmd == "from-boundary":
        domain = _load_domain(args.domain)
        model, v, ev = _toolchain(domain, args)
        points = []
        for tok in args.points.split():
            circle, pt = tok.split(":")
            points.append((int(circle), _parse_complex(pt)))
        lambdas = None
        if args.lambdas:
            lambdas = [float(x) for x in args.lambdas.split(",")]
        f = from_boundary_data(model, ev, v, _parse_complex(args.interior),
                               points, lambdas, horizon=args.horizon)
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
    # no prime function or first-kind integrals (--length is accepted, unused)
    if cmd == "cball-dist":
        domain = _load_domain(args.domain)
        model = solve_harmonic_measures(domain, order=args.basis)
        opts = DistanceOptions(seed=args.seed)
        base, target = _parse_complex(args.base), _parse_complex(args.target)
        res = mobius_distance(model, None, None, base, target, opts)
        c = math.atanh(res.value)
        print(f"mobius distance c* = {_fmt(res.value)}")
        print(f"caratheodory distance = {_fmt(c)}")
        if res.warning:
            print(f"warning: {res.warning}")
        _write_artifact(args, {
            "c_star": res.value,
            "caratheodory": c,
            "argmax": [[z.real, z.imag] for z in res.argmax],
            "warning": res.warning,
        })
        return EXIT_OK

    if cmd == "cball-raster":
        domain = _load_domain(args.domain)
        model = solve_harmonic_measures(domain, order=args.basis)
        bbox = tuple(float(x) for x in args.bbox.split(","))
        opts = DistanceOptions(seed=args.seed, refine_cap=args.refine_cap)
        raster = ball_raster(model, None, None, _parse_complex(args.center), args.r,
                             bbox=bbox, resolution=args.res, opts=opts)
        print(f"components: {raster.component_count()}")
        if args.output:
            raster.to_csv(args.output)
            print(f"raster written to {args.output}")
        return EXIT_OK

    if cmd == "find-witness":
        radii = tuple(float(x) for x in args.radii.split(","))
        depths = tuple(float(x) for x in args.depths.split(","))
        witness = find_disconnected_ball(
            shrink_radii=radii, p_depths=depths, resolution=args.res,
            opts=DistanceOptions(seed=args.seed),
            order=args.basis, max_word_length=args.length,
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
