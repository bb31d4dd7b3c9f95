"""Regenerate bench/reference.json from mpmath alone.

    python3 bench/make_reference.py

m16 is m((x+1/x)(y+1/y)(z+1/z)(w+1/w) - 16) = 4 log 2 - 6F5(3/2,3/2,3/2,3/2,
1,1; 2,2,2,2,2; 1)/32, the hypergeometric route of the paper's theorem, to
330 digits.  m8 is m((x+1/x)(y+1/y)(z+1/z) - 8), eq-1.2's left side:
averaging log|8 c1 c2 c3 - 8| over the third angle in closed form leaves
E[log(4 (1 + sqrt(1 - c1^2 c2^2)))], and the cosine moments
E[c^2n] = C(2n,n)/4^n turn its Taylor series into
log 8 - 5F4(3/2,3/2,3/2,1,1; 2,2,2,2; 1)/16, to 40 digits.  mpmath's hyper
takes seconds for each, so the checks read them from the file instead of
computing them in every run.
"""

import json
import os

from mpmath import mp

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def main():
    with mp.workdps(340):
        m16 = 4 * mp.log(2) - mp.hyper([1.5] * 4 + [1, 1], [2] * 5, 1) / 32
        m16_text = mp.nstr(m16, 330)
    with mp.workdps(50):
        m8 = mp.log(8) - mp.hyper([1.5] * 3 + [1, 1], [2] * 4, 1) / 16
        m8_text = mp.nstr(m8, 40)
    with open(PATH, "w") as fh:
        json.dump({"m16": m16_text, "m8": m8_text}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
