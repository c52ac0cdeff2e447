#!/usr/bin/env bash
# Checks or regenerates testdata/identity.sum, the digest of the canonical
# `rvpredict -json` report for every (row, mode) of the identity matrix:
# example and the 21 Table 1 rows at tracegen's defaults, in the -json,
# -witness, -parallel 2 and .rvc2 modes, plus a resume
# mode for every multi-window row: a -journal run stopped by
# RVPREDICT_FAULTS=journal_append:1=crash, then -resumed. The same rows
# plus the example programs under examples/philosophers and
# examples/account also get -deadlock and -atomicity reports, with and
# without -witness. -parallel 2 runs two window workers on a
# multi-window row and two pair workers on a one-window row. The
# canonical report drops every *_ns key and build_info (on the
# one-window rows under -parallel 2 also bool_vars, clauses and
# rollbacks, which depend on which pair worker solved which group, and
# in the deadlock and atomicity modes the telemetry block).
#
#   scripts/identity.sh          # check the full matrix (derby included)
#   scripts/identity.sh update   # rewrite testdata/identity.sum
#
# Run it from the root of the checkout, on a host with at least two
# CPUs: the pair scheduler caps its workers at GOMAXPROCS, and the
# one-window -parallel 2 reports carry the worker and solver counts. A rebaseline is one reviewed diff
# of testdata/identity.sum that names the rows and modes it changes.
set -euo pipefail

case ${1:-check} in
check) flags=(-identity-all) ;;
update) flags=(-identity-update) ;;
*)
	echo "usage: scripts/identity.sh [check|update]" >&2
	exit 2
	;;
esac
exec go test ./cmd/rvpredict -run '^TestIdentityDigests$' -count=1 -timeout 60m -args "${flags[@]}"
