# scripts/pairstats.awk — the table of a comparison by alternating pairs,
# which scripts/pairs.sh and scripts/layerpairs.sh both print.
#
#   ... | awk -v title="store-churn, 10 pairs" -f scripts/pairstats.awk
#
# Input: one line per measurement and pair, "KEY BETTER PARENT CHANGE", in
# pair order, where KEY (which may hold spaces) names what was measured and
# BETTER is "higher" or "lower"; a line with a "null" value is skipped. For
# each key, in the order first seen, it prints the pairs the change won,
# both medians, their relative difference and the parent's quartile spread
# (Q3 - Q1), each quantile interpolated between the two nearest values.

# q returns the f-quantile of the sorted v[1..k].
function q(v, k, f,    h, lo) {
	h = (k - 1) * f + 1
	lo = int(h)
	return lo >= k ? v[k] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function sort(v, k,    i, j, t) {
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && v[j - 1] > v[j]; j--) {
			t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
		}
}
$(NF - 1) == "null" || $NF == "null" { next }
{
	key = $1
	for (f = 2; f <= NF - 3; f++) key = key " " $f
	if (!(key in k)) {
		order[++m] = key; better[key] = $(NF - 2)
		width = length(key) > width ? length(key) : width
	}
	i = ++k[key]
	P[key, i] = $(NF - 1); C[key, i] = $NF
	if ((better[key] == "higher" && $NF > $(NF - 1)) || (better[key] == "lower" && $NF < $(NF - 1))) wins[key]++
}
END {
	print title
	width = width < 6 ? 6 : width
	printf "%-*s %-6s %5s %14s %14s %9s %14s\n", width, "metric", "better", "wins", "parent", "change", "delta", "parent Q3-Q1"
	for (j = 1; j <= m; j++) {
		key = order[j]; c = k[key]
		delete p; delete ch
		for (i = 1; i <= c; i++) { p[i] = P[key, i]; ch[i] = C[key, i] }
		sort(p, c); sort(ch, c)
		pm = q(p, c, 0.5); cm = q(ch, c, 0.5)
		delta = pm == 0 ? "-" : sprintf("%+.2f%%", 100 * (cm - pm) / pm)
		printf "%-*s %-6s %2d/%-2d %14.6g %14.6g %9s %14.6g\n", width, key, better[key], wins[key], c, pm, cm, delta, q(p, c, 0.75) - q(p, c, 0.25)
	}
}
