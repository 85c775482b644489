"""Tiny deterministic SVG 1.1 writer.

All layout is exact over Q; each coordinate is written rounded half to
even to PREC decimals, and one beyond the largest double is refused.
Output is built by plain string concatenation in input order, so a
fixed input always yields byte-identical documents.
"""

import math
from fractions import Fraction

PREC = 3
GRID_LINES = 100      # most grid lines drawn across one axis, plus one
SCALE = 60            # pixels per world unit
MARGIN = 20           # pixels around the viewport
# the largest double, as SVG readers parse coordinates as doubles
MAX_DOUBLE = (2 ** 53 - 1) * 2 ** 971


def fmt(x):
    """An int or Fraction rounded half to even to PREC decimals, e.g. "-1.250"."""
    d = x.denominator
    q, r = divmod(x.numerator * 10 ** PREC, d)
    if 2 * r > d or 2 * r == d and q % 2:
        q += 1
    units, digits = divmod(abs(q), 10 ** PREC)
    if units > MAX_DOUBLE or units == MAX_DOUBLE and digits:
        raise ValueError("a coordinate of the drawing is too large for a float")
    return "%s%d.%0*d" % ("-" if q < 0 else "", units, PREC, digits)


def grid_step(span):
    """The least step of 1, 2 or 5 times a power of ten with
    span <= GRID_LINES * step."""
    decade = 1
    while True:
        for m in (1, 2, 5):
            if span <= GRID_LINES * m * decade:
                return m * decade
        decade *= 10


class SvgCanvas:
    """Accumulates SVG elements; world coordinates are mapped to pixels
    with y flipped so the picture matches the usual math orientation."""

    def __init__(self, xmin, ymin, xmax, ymax):
        self.xmin, self.ymin, self.xmax, self.ymax = (
            Fraction(xmin), Fraction(ymin), Fraction(xmax), Fraction(ymax))
        self.width = (self.xmax - self.xmin) * SCALE + 2 * MARGIN
        self.height = (self.ymax - self.ymin) * SCALE + 2 * MARGIN
        if max(abs(self.width), abs(self.height)) > MAX_DOUBLE:
            raise ValueError("viewport is too large to draw: its width and height "
                             "must fit in a float")
        self.elems = []

    def px(self, p):
        x = (p[0] - self.xmin) * SCALE + MARGIN
        y = (self.ymax - p[1]) * SCALE + MARGIN
        return x, y

    def line(self, a, b, stroke="black", width=1, dash=None):
        (x1, y1), (x2, y2) = self.px(a), self.px(b)
        extra = ' stroke-dasharray="%s"' % dash if dash else ""
        self.elems.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="%s"%s/>'
            % (fmt(x1), fmt(y1), fmt(x2), fmt(y2), stroke, width, extra))

    def polyline(self, pts):
        coords = " ".join("%s,%s" % (fmt(x), fmt(y)) for x, y in map(self.px, pts))
        self.elems.append(
            '<polyline points="%s" fill="none" stroke="black" stroke-width="2"/>' % coords)

    def circle(self, c, rpx=4, fill="black"):
        x, y = self.px(c)
        self.elems.append(
            '<circle cx="%s" cy="%s" r="%s" fill="%s"/>' % (fmt(x), fmt(y), rpx, fill))

    def cross(self, c):
        """A red X filling the 10-pixel square centred on c."""
        x, y = self.px(c)
        h = 5
        self.elems.append(
            '<path d="M %s %s L %s %s M %s %s L %s %s" stroke="red" stroke-width="2"/>'
            % (fmt(x - h), fmt(y - h), fmt(x + h), fmt(y + h),
               fmt(x - h), fmt(y + h), fmt(x + h), fmt(y - h)))

    def grid(self):
        """Grid lines at the multiples of a step per axis: 1 for spans of
        up to GRID_LINES units, else the least of 2, 5, 10, 20, 50, ...
        that keeps the axis at GRID_LINES + 1 lines or fewer."""
        step = grid_step(self.xmax - self.xmin)
        for x in range(math.ceil(self.xmin / step) * step, math.floor(self.xmax) + 1, step):
            self.line((x, self.ymin), (x, self.ymax), stroke="#dddddd")
        step = grid_step(self.ymax - self.ymin)
        for y in range(math.ceil(self.ymin / step) * step, math.floor(self.ymax) + 1, step):
            self.line((self.xmin, y), (self.xmax, y), stroke="#dddddd")

    def clip_ray(self, origin, direction):
        """Largest segment of origin + t*direction (t >= 0) inside the
        viewport, or None if the ray misses it entirely."""
        (ox, oy), (dx, dy) = origin, direction
        tmin, tmax = 0, None
        for o, d, lo, hi in ((ox, dx, self.xmin, self.xmax),
                             (oy, dy, self.ymin, self.ymax)):
            if d == 0:
                if not (lo <= o <= hi):
                    return None
                continue
            t1, t2 = (lo - o) / d, (hi - o) / d
            if t1 > t2:
                t1, t2 = t2, t1
            tmin = max(tmin, t1)
            tmax = t2 if tmax is None else min(tmax, t2)
        if tmax is None or tmax < tmin:
            return None
        a = (ox + tmin * dx, oy + tmin * dy)
        b = (ox + tmax * dx, oy + tmax * dy)
        return a, b

    def document(self):
        head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
                '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                'width="%s" height="%s" viewBox="0 0 %s %s">\n'
                % (fmt(self.width), fmt(self.height), fmt(self.width), fmt(self.height)))
        body = "\n".join(self.elems)
        return head + body + "\n</svg>\n"
