"""Every threshold of the library, each defined once with its meaning.

A verdict is a threshold decision: a sum or product case is the zero
pattern of weak-value numerators against ZERO_TOL, and every projector,
orthogonality or unitarity precondition a residual against STRUCT_TOL.
Each check compares one magnitude with one of these values by one plain
test, ``<=`` unless stated, so a value exactly at the cut is within the
tolerance. A NaN fails every test, so it is never within a tolerance.
Seven values are independent; NULL_PROB is derived.
"""

#: A structural residual r (idempotence, self-adjointness, commutation,
#: orthogonality, a vanishing product, unitarity) passes when
#: max |r_ij| <= STRUCT_TOL.
STRUCT_TOL = 1e-10

#: A scalar that should equal its exact value is accepted within it: a
#: state's norm |n - 1| <= SCALAR_TOL, the imaginary part of a Born
#: expectation |Im| <= SCALAR_TOL. A state norm below it (``<``) counts as
#: zero and cannot be normalized.
SCALAR_TOL = 1e-12

#: A weak-value numerator |<post|U A|pre>| <= ZERO_TOL vanishes (the
#: ``is_zero`` flag), and a postselection overlap |<post|U|pre>| <=
#: ZERO_TOL is lost: no weak value exists.
ZERO_TOL = 1e-12

#: A postselection overlap |<post|U|pre>| < POLE_TOL (strict) sets the
#: near-pole flag and its warning.
POLE_TOL = 1e-6

#: A computed probability in [-BOUNDS_TOL, 1 + BOUNDS_TOL] is clamped to
#: [0, 1]; one outside raises ConsistencyError.
BOUNDS_TOL = 1e-10

#: A probability <= NULL_PROB is zero: the square of an amplitude that
#: vanishes by ZERO_TOL. The product is exactly 1e-24.
NULL_PROB = ZERO_TOL * ZERO_TOL

#: A meter's postselection weight <= EXTINCT is extinguished: no pointer
#: statistics exist.
EXTINCT = 1e-14

#: C, the bound on the rounding gap between a grid readout and its closed
#: form in units of eps: the grid's success weight is within
#: C eps (|alpha|^2 + |beta|^2) of w, and its weak-limit estimate within
#: C eps (halfwidth / g) (|alpha|^2 + |beta|^2) / w of the closed form's.
#: Over 20,000 random draws (sigma from 1e-3 to 1e4, g from the rounding
#: floor to the spacing limit; real, complex and nearly opposite alpha and
#: beta) the worst gaps were 15 units for the weight and 3.2 for the
#: estimate, both near the spacing limit: C keeps over 1000 times that.
GRID_GAP = 1e5
