#!/bin/sh
# mutants.sh runs every committed mutant: each testdata/mutants/*.patch of
# a package under internal/ or cmd/. A mutant is a unified diff against the
# tree, after a header that says what it breaks and names its gate:
#
#	Gate: TestName    the test of the patch's package that must kill it
#	                  (TestName/row names one row of a table test)
#	Survives: yes     on a fixture only: its gate must not kill it
#
# Each patch is applied with patch(1) to copies of the files it touches in
# a temporary directory, never to the tree, and `go test -overlay` builds
# from those copies.
#
#	sh mutants.sh          run each mutant's gate alone, then check the
#	                       kill matrix (the Makefile's `mutants` target)
#	sh mutants.sh matrix   run each mutant against the whole suite and
#	                       rewrite the kill matrix (`make kill-matrix`)
#
# The gate run builds the package's test binary with `go test -c -overlay`
# and runs the gate alone, anchored element by element (^TestX$/^row$),
# from the package's directory as `go test` would, for at most 60 s: a
# mutant that hangs its gate counts as killed once that time is up, and
# its verdict says "killed by timeout" so that a gate that only ran slow
# can be told from one that failed. It
# fails if a mutant no longer applies or builds, names a gate its package
# does not have, or survives its gate, and if a fixture does not survive.
#
# The kill matrix, testdata/kill_matrix.txt, has one line per mutant: the
# mutant (package directory and patch name), its gate, and every top-level
# test of the whole suite that failed with the mutant in place, as
# package:Test (a package that failed with no failing test is package:-).
# The gate run then checks it: its rows must name exactly the committed
# mutants, each row's gate must be its patch's, a mutant's gate must be
# among its killers and a fixture must have none. The same check must
# fail on testdata/kill_matrix_fixture.txt, which plants one row of each
# defect, so the check is shown to be able to fail.
#
# GO names the go command, as in the Makefile.
set -u
go=${GO:-go}
root=$(pwd)
matrix=testdata/kill_matrix.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mutants=$(find internal cmd -path '*/testdata/mutants/*.patch' | sort)

# prepare copies the files mutant $m touches into $work, patches them and
# writes the overlay that builds them in place of the tree's.
prepare() {
	pkg=${m%%/testdata/mutants/*}
	name=$(basename "$m" .patch)
	gate=$(sed -n 's/^Gate: *//p' "$m")
	survives=$(sed -n 's/^Survives: *//p' "$m")
	work=$tmp/$pkg/$name
	mkdir -p "$work"
	replace=
	for f in $(sed -n 's|^+++ b/||p' "$m"); do
		mkdir -p "$work/$(dirname "$f")"
		cp "$f" "$work/$f"
		replace="$replace${replace:+,}\"$root/$f\":\"$work/$f\""
	done
	printf '{"Replace":{%s}}\n' "$replace" >"$work/overlay.json"
	patch -s -p1 -F0 -d "$work" <"$m" >"$work/log" 2>&1
}

# anchor turns a gate TestX/row into the -test.run pattern ^TestX$/^row$,
# each element matched literally.
anchor() {
	printf '%s\n' "$1" | sed 's/[][\\.*+?(){}|^$]/\\&/g; s|/|$/^|g; s/^/^/; s/$/$/'
}

# check reads a kill matrix on stdin and prints one line per defect in it.
check() {
	awk -v mutants="$(for m in $mutants; do
		printf '%s %s %s\n' "${m%%/testdata/mutants/*}/$(basename "$m" .patch)" \
			"$(sed -n 's/^Gate: *//p' "$m")" "$(sed -n 's/^Survives: *//p' "$m")"
	done)" '
	BEGIN {
		n = split(mutants, line, "\n")
		for (i = 1; i <= n; i++) {
			split(line[i], f, " ")
			gate[f[1]] = f[2]
			fixture[f[1]] = f[3] == "yes"
		}
	}
	/^#/ || NF == 0 { next }
	{
		m = $1
		if (!(m in gate)) { print m ": names no committed mutant"; next }
		if (m in seen) { print m ": has two rows"; next }
		seen[m] = 1
		if ($2 != gate[m]) { print m ": gate " $2 ", but its patch names " gate[m]; next }
		pkg = m; sub(/\/[^\/]*$/, "", pkg)
		g = $2; sub(/\/.*/, "", g)
		killed = 0
		for (i = 3; i <= NF; i++) if ($i == pkg ":" g) killed = 1
		if (fixture[m] && NF > 2) print m ": a fixture, but killed by " $3
		if (!fixture[m] && !killed) print m ": its gate " $2 " is not among its killers"
	}
	END { for (m in gate) if (!(m in seen)) print m ": has no row" }'
}

case ${1:-gates} in
matrix)
	{
		echo "# The kill matrix: mutant, gate, then every top-level test the mutant"
		echo "# fails in the whole suite (package:Test). Regenerate with"
		echo "# \`make kill-matrix\`; \`make mutants\` checks it."
		for m in $mutants; do
			if ! prepare; then
				echo "FAIL $m: no longer applies" >&2
				exit 1
			fi
			"$go" test -overlay "$work/overlay.json" -json -timeout 120s ./... >"$work/json" 2>"$work/log"
			killers=$(awk '
				/"Action":"fail"/ {
					pkg = $0; sub(/.*"Package":"/, "", pkg); sub(/".*/, "", pkg)
					sub(/^syrup\/?/, "", pkg); if (pkg == "") pkg = "."
					if ($0 ~ /"Test":"/) {
						t = $0; sub(/.*"Test":"/, "", t); sub(/".*/, "", t)
						if (t !~ /\//) { print pkg ":" t; failed[pkg] = 1 }
					} else pkgfail[pkg] = 1
				}
				END { for (p in pkgfail) if (!(p in failed)) print p ":-" }' "$work/json" | sort -u | tr '\n' ' ')
			echo "$pkg/$name $gate ${killers% }" | sed 's/ *$//'
			echo "$pkg/$name: $(echo "$killers" | wc -w) killers" >&2
		done
	} >"$tmp/matrix"
	mv "$tmp/matrix" "$matrix"
	exit 0
	;;
gates) ;;
*)
	echo "usage: sh mutants.sh [matrix]" >&2
	exit 2
	;;
esac

n=0
failed=0
for m in $mutants; do
	if ! prepare; then
		verdict="no longer applies"
	elif ! "$go" test -c -overlay "$work/overlay.json" -o "$work/gate.test" "./$pkg" >"$work/log" 2>&1; then
		verdict="does not build"
	elif ! (cd "$pkg" && "$work/gate.test" -test.list "^${gate%%/*}\$" 2>"$work/log") | grep -qx "${gate%%/*}"; then
		verdict="names no test of $pkg: '$gate'"
	elif (cd "$pkg" && "$work/gate.test" -test.run "$(anchor "$gate")" -test.timeout 60s >"$work/log" 2>&1); then
		verdict="survives $gate"
	elif grep -q '^panic: test timed out' "$work/log"; then
		verdict="killed by timeout: $gate ran past 60 s"
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

problems=$([ -r "$matrix" ] && check <"$matrix" || echo "cannot be read")
if [ -n "$problems" ]; then
	echo "FAIL $matrix (regenerate it with make kill-matrix):"
	echo "$problems" | sort | sed 's/^/	/'
	failed=$((failed + 1))
else
	echo "ok   $matrix: one row per mutant, each gate among its killers"
fi
planted=$(check <testdata/kill_matrix_fixture.txt)
missed=0
for defect in "names no committed mutant" "has two rows" "but its patch names" \
	"a fixture, but killed by" "is not among its killers" "has no row"; do
	if ! echo "$planted" | grep -q "$defect"; then
		echo "FAIL testdata/kill_matrix_fixture.txt: the check missed its planted row that $defect"
		missed=$((missed + 1))
	fi
done
[ "$missed" -eq 0 ] && echo "ok   testdata/kill_matrix_fixture.txt: the check fails on its planted rows"
failed=$((failed + missed))
[ "$n" -gt 0 ] && [ "$failed" -eq 0 ]
