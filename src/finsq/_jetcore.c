/* Compiled float64 kernels for truncated Taylor coefficient arrays.
 *
 * Each kernel walks a precomputed triple table (i, j, k) with i + j = k in
 * the order the table stores it, so results match the numpy tier in
 * _kernels.py bit for bit.  Division and square root take degree-sliced
 * tables: offsets delimit the triples and the positions of each total degree,
 * and the recursion fills the output one degree at a time.
 *
 * Coefficient arrays are 1-d, shape (size,), or 2-d, shape (size, S), with
 * one column per sample.  A 1-d array is the case S = 1.  The sample loop is
 * the innermost one, so every sample sees the same operations in the same
 * order as a lone 1-d call, and its column comes out bit for bit the same.
 * A sample table builds its flag bundles this way, one chunk of samples per
 * jet program.
 *
 * A bad call raises TypeError, ValueError or IndexError and touches no memory
 * outside its arrays.  Buffers, lengths, sample counts and offsets are checked
 * up front; each triple is checked as the loop reaches it, which costs far
 * less than a separate pass, so a bad triple can leave out partly written. */
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Raise exc with a message and return 0 (or NULL) from the caller. */
#define FAIL(exc, ...) do { PyErr_Format(exc, __VA_ARGS__); return 0; } while (0)

typedef struct { Py_buffer view[9]; int n; } Views; /* the buffers one call holds */

static void release(Views *v) { while (v->n) PyBuffer_Release(&v->view[--v->n]); }

/* Argument pos as a C-contiguous buffer of the given kind: 'd' float64 and
 * 'w' writable float64, 1-d or 2-d; 'i' int32 and 'l' int64, 1-d.  *len gets
 * the row count and *lanes the column count (1 for a 1-d buffer).  NULL with
 * an exception if the buffer does not fit. */
static void *get(Views *v, PyObject *obj, char kind, Py_ssize_t pos, Py_ssize_t *len, Py_ssize_t *lanes)
{
    Py_buffer *b = &v->view[v->n];
    if (PyObject_GetBuffer(obj, b, PyBUF_RECORDS_RO) < 0)
        return NULL;
    v->n++;
    int coeffs = kind == 'd' || kind == 'w';
    const char *f = b->format, *want = kind == 'i' ? "int32" : kind == 'l' ? "int64" : "float64";
    if (*f == '@' || *f == '=' || (*f == '<' && PY_LITTLE_ENDIAN))
        f++;
    if (!f[0] || f[1] || b->itemsize != (kind == 'i' ? 4 : 8) || !strchr(coeffs ? "d" : "ilq", f[0]))
        FAIL(PyExc_TypeError, "argument %zd must be a buffer of %s, not format '%s'", pos, want, b->format);
    if (b->ndim < 1 || b->ndim > 1 + coeffs || !PyBuffer_IsContiguous(b, 'C'))
        FAIL(PyExc_ValueError, "argument %zd must be %s and C-contiguous", pos, coeffs ? "1-d or 2-d" : "1-d");
    if (kind == 'w' && b->readonly)
        FAIL(PyExc_ValueError, "argument %zd must be writable", pos);
    *len = b->shape[0];
    *lanes = b->ndim == 2 ? b->shape[1] : 1;
    return b->buf;
}

/* One buffer per letter of spec (see get), then the degree count if ndeg;
 * the coefficient arrays must agree in their sample count, stored in *lanes. */
static int parse(Views *v, const char *fn, PyObject *const *args, Py_ssize_t nargs, const char *spec,
                 void **p, Py_ssize_t *len, Py_ssize_t *lanes, Py_ssize_t *ndeg)
{
    Py_ssize_t nbuf = (Py_ssize_t)strlen(spec), want = nbuf + (ndeg != NULL), s = -1, each;
    if (nargs != want)
        FAIL(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", fn, want, nargs);
    for (Py_ssize_t i = 0; i < nbuf; i++) {
        if (!(p[i] = get(v, args[i], spec[i], i, len + i, &each)))
            return 0;
        if (spec[i] != 'd' && spec[i] != 'w')
            continue;
        if (s >= 0 && each != s)
            FAIL(PyExc_ValueError, "argument %zd has %zd samples, the ones before it %zd", i, each, s);
        s = each;
    }
    *lanes = s;
    return !ndeg || (*ndeg = PyNumber_AsSsize_t(args[nbuf], PyExc_OverflowError)) != -1 || !PyErr_Occurred();
}

/* The n-row block at p and the m-row block at q, S lanes each, share no
 * memory: the array a kernel writes through a restrict pointer must not be
 * one it reads through another. */
static int disjoint(const double *p, Py_ssize_t n, const double *q, Py_ssize_t m, Py_ssize_t S,
                    const char *what)
{
    uintptr_t p0 = (uintptr_t)p, q0 = (uintptr_t)q, size = sizeof(double) * (size_t)S;
    if (p0 < q0 + (size_t)m * size && q0 < p0 + (size_t)n * size)
        FAIL(PyExc_ValueError, "%s must not overlap", what);
    return 1;
}

static int same_length(const Py_ssize_t *n)
{
    if (n[1] != n[0] || n[2] != n[0])
        FAIL(PyExc_ValueError, "ti, tj and tk must have equal length");
    return 1;
}

/* off[0..ndeg] nondecreasing, within [0, limit]. */
static int offsets_ok(const int64_t *off, Py_ssize_t len, Py_ssize_t ndeg, Py_ssize_t limit, const char *name)
{
    if (len <= ndeg)
        FAIL(PyExc_ValueError, "%s needs ndeg + 1 = %zd entries, has %zd", name, ndeg + 1, len);
    for (Py_ssize_t d = 0; d < ndeg; d++)
        if (off[d] > off[d + 1])
            FAIL(PyExc_ValueError, "%s is not monotone at %zd", name, d);
    if (off[0] < 0 || off[ndeg] > limit)
        FAIL(PyExc_IndexError, "%s runs outside [0, %zd]", name, limit);
    return 1;
}

/* The loops take the sample count S as an argument and are always inlined,
 * so each call site can pass S == 1 as a constant: the compiler then
 * specialises one copy of the same loop for S = 1, where the sample loop
 * would cost more than the one multiply-add it runs.  A loop returns the
 * index of the first triple outside the arrays (rows ni, nj, nk), or -1. */
#define INLINE static inline __attribute__((always_inline))

INLINE Py_ssize_t mul_loop(const double *a, const double *b, double *out, const int32_t *ti,
                           const int32_t *tj, const int32_t *tk, Py_ssize_t ntrip,
                           Py_ssize_t ni, Py_ssize_t nj, Py_ssize_t nk, Py_ssize_t S)
{
    for (Py_ssize_t m = 0; m < ntrip; m++) {
        size_t i = (size_t)ti[m], j = (size_t)tj[m], k = (size_t)tk[m];
        if (i >= (size_t)ni || j >= (size_t)nj || k >= (size_t)nk)
            return m;
        const double *ai = a + i * S, *bj = b + j * S;
        double *restrict ok = out + k * S;
        for (Py_ssize_t s = 0; s < S; s++)
            ok[s] += ai[s] * bj[s];
    }
    return -1;
}

/* out = a / b, or with b = out, den = out and scale 2, out = sqrt(a). */
INLINE Py_ssize_t recur_loop(const double *a, const double *b, double *out, double *acc,
                             const int32_t *ti, const int32_t *tj, const int32_t *tk,
                             const int64_t *toff, const int64_t *poff, Py_ssize_t ndeg, int is_div,
                             Py_ssize_t ni, Py_ssize_t nj, Py_ssize_t nk, Py_ssize_t S)
{
    const double *den = is_div ? b : out, scale = is_div ? 1.0 : 2.0;
    for (Py_ssize_t s = 0; s < S; s++)
        out[s] = is_div ? a[s] / b[s] : sqrt(a[s]);
    for (Py_ssize_t d = 1; d < ndeg; d++) {
        for (int64_t m = toff[d]; m < toff[d + 1]; m++) {
            size_t i = (size_t)ti[m], j = (size_t)tj[m], k = (size_t)tk[m];
            if (i >= (size_t)ni || j >= (size_t)nj || k >= (size_t)nk)
                return (Py_ssize_t)m;
            const double *bj = b + j * S, *oi = out + i * S;
            double *restrict ak = acc + k * S;
            for (Py_ssize_t s = 0; s < S; s++)
                ak[s] += bj[s] * oi[s];
        }
        for (int64_t q = poff[d]; q < poff[d + 1]; q++)
            for (Py_ssize_t s = 0; s < S; s++)
                out[q * S + s] = (a[q * S + s] - acc[q * S + s]) / (scale * den[s]);
    }
    return -1;
}

/* mul(a, b, out, ti, tj, tk): out[tk] += a[ti] * b[tj] over the table. */
static PyObject *mul(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Views v = {.n = 0};
    void *p[6];
    Py_ssize_t n[6], S;
    PyObject *res = NULL;
    if (parse(&v, "mul", args, nargs, "ddwiii", p, n, &S, NULL) && same_length(n + 3) &&
        disjoint(p[2], n[2], p[0], n[0], S, "out and a") && disjoint(p[2], n[2], p[1], n[1], S, "out and b")) {
        Py_ssize_t bad;
        Py_BEGIN_ALLOW_THREADS
        bad = S == 1 ? mul_loop(p[0], p[1], p[2], p[3], p[4], p[5], n[3], n[0], n[1], n[2], 1)
                     : mul_loop(p[0], p[1], p[2], p[3], p[4], p[5], n[3], n[0], n[1], n[2], S);
        Py_END_ALLOW_THREADS
        res = bad < 0 ? Py_NewRef(Py_None)
                      : PyErr_Format(PyExc_IndexError, "triple %zd indexes outside its arrays", bad);
    }
    release(&v);
    return res;
}

/* div(a, b, out, acc, ti, tj, tk, trip_off, pos_off, ndeg): out = a / b, and
 * sqrt_(a, out, acc, ti, tj, tk, trip_off, pos_off, ndeg): out = sqrt(a).
 * acc must arrive zeroed.  One recursion serves both: sqrt_'s b is out, and
 * its divisor 2 sqrt(a) is twice out's leading row, where division's is b's. */
static PyObject *recur(PyObject *const *args, Py_ssize_t nargs, int is_div)
{
    Views v = {.n = 0};
    void *p[9]; /* a, b, out, acc, ti, tj, tk, trip_off, pos_off */
    Py_ssize_t n[9], S, ndeg;
    PyObject *res = NULL;
    int sq = !is_div; /* sqrt_ parses one slot up, then a moves down and b aliases out */
    if (!parse(&v, is_div ? "div" : "sqrt_", args, nargs, "ddwwiiill" + sq, p + sq, n + sq, &S, &ndeg))
        goto done;
    if (sq)
        p[0] = p[1], n[0] = n[1], p[1] = p[2], n[1] = n[2];
    if (ndeg < 1 || n[0] < 1 || n[1] < 1 || n[2] < 1) {
        PyErr_SetString(PyExc_ValueError, "ndeg and the arrays a, b and out must be nonempty");
        goto done;
    }
    Py_ssize_t lpos = n[0] < n[2] ? n[0] : n[2];
    if (!same_length(n + 4) || !offsets_ok(p[7], n[7], ndeg, n[4], "trip_off") ||
        !offsets_ok(p[8], n[8], ndeg, lpos < n[3] ? lpos : n[3], "pos_off") ||
        !disjoint(p[3], n[3], p[1], n[1], S, "acc and b") || !disjoint(p[3], n[3], p[2], n[2], S, "acc and out"))
        goto done;
    Py_ssize_t bad;
    Py_BEGIN_ALLOW_THREADS
    bad = S == 1 ? recur_loop(p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7], p[8], ndeg, is_div,
                              n[2], n[1], n[3], 1)
                 : recur_loop(p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7], p[8], ndeg, is_div,
                              n[2], n[1], n[3], S);
    Py_END_ALLOW_THREADS
    res = bad < 0 ? Py_NewRef(Py_None)
                  : PyErr_Format(PyExc_IndexError, "triple %zd indexes outside its arrays", bad);
done:
    release(&v);
    return res;
}

static PyObject *div_(PyObject *self, PyObject *const *args, Py_ssize_t n) { return recur(args, n, 1); }
static PyObject *sqrt_(PyObject *self, PyObject *const *args, Py_ssize_t n) { return recur(args, n, 0); }

static PyMethodDef methods[] = {
    {"mul", (PyCFunction)(void (*)(void))mul, METH_FASTCALL, "mul(a, b, out, ti, tj, tk)"},
    {"div", (PyCFunction)(void (*)(void))div_, METH_FASTCALL, "div(a, b, out, acc, ti, tj, tk, trip_off, pos_off, ndeg)"},
    {"sqrt_", (PyCFunction)(void (*)(void))sqrt_, METH_FASTCALL, "sqrt_(a, out, acc, ti, tj, tk, trip_off, pos_off, ndeg)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, .m_name = "_jetcore", .m_size = -1, .m_methods = methods};

PyMODINIT_FUNC PyInit__jetcore(void) { return PyModule_Create(&module); }
