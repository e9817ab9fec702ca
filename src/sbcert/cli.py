"""Command-line entry point: run the pipeline and emit a JSON certificate."""

import argparse
import os
import sys
from contextlib import nullcontext

from .errors import BadInput, SbcertError
from .pipeline import PipelineOptions, certificate_to_json, run_pipeline


def build_parser() -> argparse.ArgumentParser:
    opts = PipelineOptions()  # the run defaults, kept in one place
    parser = argparse.ArgumentParser(
        prog="sbcert",
        description=(
            "Construct the degree-3 cyclic division algebra attached to a prime "
            "p = 1 (mod 3), verify that its projective units realize the "
            "non-abelian group of order 3p, and emit a JSON certificate."
        ),
    )
    parser.add_argument("--p", type=int, required=True, help="prime with p = 1 (mod 3)")
    parser.add_argument(
        "--a",
        type=int,
        default=opts.a,
        help="override the algebra parameter (must be a non-cube unit mod p)",
    )
    parser.add_argument("--seed", type=int, default=opts.seed, help="seed for randomized checks")
    parser.add_argument(
        "--trials", type=int, default=opts.trials, help="sample count for randomized checks"
    )
    parser.add_argument(
        "--norm-search-bound",
        type=int,
        default=opts.norm_search_bound,
        help="height bound for the brute-force norm search; 0 skips it "
        "(default: 1 for p = 7, 0 otherwise)",
    )
    parser.add_argument("--out", default=None, help="certificate path (default: stdout)")
    parser.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    options = PipelineOptions(
        a=args.a,
        seed=args.seed,
        trials=args.trials,
        norm_search_bound=args.norm_search_bound,
    )
    try:
        cert = run_pipeline(args.p, options)
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
            fh.write(certificate_to_json(cert) + "\n")
            fh.flush()
    except BadInput as exc:
        print(f"sbcert: error: {exc}", file=sys.stderr)
        return 2
    except SbcertError as exc:
        # a stage's own invariant broke: neither a FAIL (1) nor bad input (2)
        name = type(exc).__name__
        print(f"sbcert: error: internal check raised {name}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        where = args.out or "stdout"
        print(f"sbcert: error: cannot write {where}: {exc.strerror}", file=sys.stderr)
        if not args.out:  # the exit flush must not fail again (SIGPIPE, Python's signal docs)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except KeyboardInterrupt:
        print("sbcert: error: interrupted", file=sys.stderr)
        return 130
    if not args.quiet:
        group = cert.group
        print(
            f"sbcert: p={cert.p} d={cert.d} a={cert.a} group order {group.order} "
            f"jordan index {group.jordan_index} -> {cert.overall}",
            file=sys.stderr,
        )
    return 0 if cert.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
