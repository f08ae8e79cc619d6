#!/usr/bin/env bash
# A drop-in for `go test` in CI's gate steps. Before it runs the tests,
# it checks that every |-separated name in the -run pattern matches at
# least one test, fuzz target, benchmark or example of the packages
# named: a -run that matches nothing passes, so a moved or renamed test
# would otherwise drop out of its gate unnoticed.
#
#   bash .github/gate-test.sh -race -count=3 -run 'TestA|TestB' ./internal/engine/
set -euo pipefail
run='' pkgs=()
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  case ${args[i]} in
    -run) run=${args[i + 1]} ;;
    -run=*) run=${args[i]#-run=} ;;
    ./*) pkgs+=("${args[i]}") ;;
  esac
done
if [[ -z $run || ${#pkgs[@]} -eq 0 ]]; then
  echo "gate-test.sh: needs -run PATTERN and at least one ./package" >&2
  exit 2
fi
listed=$(go test -list . "${pkgs[@]}" | grep -Ev '^(ok|\?) ')
status=0
IFS='|' read -ra names <<<"$run"
for name in "${names[@]}"; do
  if ! grep -qE -- "$name" <<<"$listed"; then
    echo "gate-test.sh: -run names $name, which matches nothing in ${pkgs[*]}" >&2
    status=1
  fi
done
((status == 0)) || exit 1
exec go test "$@"
