#!/bin/sh
# mutants.sh runs every committed mutant: each testdata/mutants/*.patch of
# a package under internal/ or cmd/. A mutant is a unified diff against the
# tree, after a header that says what it breaks and names its gate:
#
#	Gate: TestName    the test of the patch's package that must kill it
#	Survives: yes     on a fixture only: its gate must not kill it
#
# Each patch is applied with patch(1) to copies of the files it touches in
# a temporary directory, never to the tree. `go test -c -overlay` builds the
# package's test binary from those copies, and the binary runs the gate
# alone, from the package's directory as `go test` would. The run fails if
# a mutant no longer applies or builds, names a gate its package does not
# have, or survives its gate, and if a fixture does not survive.
#
# Usage: sh mutants.sh (the Makefile's `mutants` target). GO names the go
# command, as in the Makefile.
set -u
go=${GO:-go}
root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
n=0
failed=0
for m in $(find internal cmd -path '*/testdata/mutants/*.patch' | sort); do
	pkg=${m%%/testdata/mutants/*}
	name=$(basename "$m" .patch)
	gate=$(sed -n 's/^Gate: *//p' "$m")
	survives=$(sed -n 's/^Survives: *//p' "$m")
	work=$tmp/$name
	mkdir -p "$work"
	replace=
	for f in $(sed -n 's|^+++ b/||p' "$m"); do
		mkdir -p "$work/$(dirname "$f")"
		cp "$f" "$work/$f"
		replace="$replace${replace:+,}\"$root/$f\":\"$work/$f\""
	done
	printf '{"Replace":{%s}}\n' "$replace" >"$work/overlay.json"
	if ! patch -s -p1 -F0 -d "$work" <"$m" >"$work/log" 2>&1; then
		verdict="no longer applies"
	elif ! "$go" test -c -overlay "$work/overlay.json" -o "$work/gate.test" "./$pkg" >"$work/log" 2>&1; then
		verdict="does not build"
	elif ! (cd "$pkg" && "$work/gate.test" -test.list "^${gate%%/*}\$" 2>"$work/log") | grep -qx "${gate%%/*}"; then
		verdict="names no test of $pkg: '$gate'"
	elif (cd "$pkg" && "$work/gate.test" -test.run "^$gate\$" >"$work/log" 2>&1); then
		verdict="survives $gate"
	else
		verdict="killed by $gate"
	fi
	n=$((n + 1))
	case $verdict,$survives in
	"killed by "*, | "survives "*,yes)
		echo "ok   $m: $verdict"
		;;
	*)
		echo "FAIL $m: $verdict"
		sed 's/^/	/' "$work/log"
		failed=$((failed + 1))
		;;
	esac
done
echo "$n mutants, $failed failed"
[ "$n" -gt 0 ] && [ "$failed" -eq 0 ]
