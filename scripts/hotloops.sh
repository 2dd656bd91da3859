#!/usr/bin/env bash
# hotloops: the SINR pair loops make no call (DESIGN.md §8, "Pair loops").
# Builds crsim and disassembles the three kernels of internal/sinr whose
# loops sum Eq. (1) pair by pair: certWalk.span (the certificate's walk and
# a faded listener's full bracket), certWalk.spanPair and Channel.sumAll.
# Each may call only the pre-loop signal pass (sinr.signals) and the
# runtime's bounds and stack-growth paths (runtime.panic*,
# runtime.morestack*). Any other CALL — attenuation let back into a loop by
# an inlining change, say — fails the check, and so does a kernel missing
# from the binary (inlined into its caller, renamed or deleted). Shared by
# `make hotloops` and CI's test job.
set -euo pipefail

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/crsim" ./cmd/crsim

pkg='fadingcr/internal/sinr'
kernels=('(*certWalk).span' '(*certWalk).spanPair' '(*Channel).sumAll')
allowed="^(${pkg//./\\.}\\.signals|runtime\\.panic[A-Za-z0-9_]*|runtime\\.morestack[A-Za-z0-9_]*(\\.abi0)?)\\(SB\\)\$"

fail=0
for k in "${kernels[@]}"; do
  sym="$pkg.$k"
  re=$(printf '%s' "$sym" | sed 's/[.()*]/\\&/g')
  dis=$(go tool objdump -s "^$re\$" "$tmp/crsim")
  if ! grep -qF "TEXT $sym(SB)" <<<"$dis"; then
    echo "hotloops: $sym is not in the binary" >&2
    fail=1
    continue
  fi
  # Each instruction line is file:line, address, encoding, then the
  # instruction; a CALL's fifth field is its target.
  bad=$(awk -v ok="$allowed" '$4 == "CALL" && $5 !~ ok' <<<"$dis")
  if [[ -n "$bad" ]]; then
    echo "hotloops: $sym makes a call its pair loop must not make:" >&2
    echo "$bad" >&2
    fail=1
  fi
done
if [[ $fail -ne 0 ]]; then
  exit 1
fi
echo "hotloops: the ${#kernels[@]} pair-loop kernels call only sinr.signals and the runtime's panic and stack paths"
