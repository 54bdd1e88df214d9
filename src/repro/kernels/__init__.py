"""The nine MediaBench kernels of the paper, each in four ISA variants.

Kernels (paper section 4.1):

* ``idct`` — 8x8 inverse discrete cosine transform (MPEG/JPEG decode).
* ``motion1`` — 16x16 sum of absolute differences (MPEG motion estimation).
* ``motion2`` — 16x16 sum of squared differences.
* ``rgb2ycc`` — RGB to YCbCr colour conversion (JPEG encode).
* ``h2v2`` — 2x2 chroma upsampling (JPEG decode).
* ``comp`` — motion-compensation blending (MPEG decode).
* ``addblock`` — saturated residual add (MPEG decode).
* ``ltppar`` — GSM long-term-prediction parameter search (cross-correlation).
* ``ltpsfilt`` — GSM long-term synthesis filtering.

Each kernel provides a NumPy golden reference and ``build_<isa>`` methods
that emit scalar / MMX / MDMX / MOM instruction streams whose functional
results are verified against the reference.
"""
