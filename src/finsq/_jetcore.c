/* Compiled float64 kernels for truncated Taylor coefficient arrays.
 *
 * Each kernel walks a precomputed triple table (i, j, k) with i + j = k in
 * the order the table stores it, so results match the numpy tier in
 * _kernels.py bit for bit.  Division and square root take degree-sliced
 * tables: offsets delimit the triples and the positions of each total degree,
 * and the recursion fills the output one degree at a time.
 *
 * A bad call raises TypeError, ValueError or IndexError and touches no memory
 * outside its arrays.  Buffers, lengths and offsets are checked up front; each
 * triple is checked as the loop reaches it, which costs far less than a
 * separate pass, so a bad triple can leave out partly written. */
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Raise exc with a message and return 0 (or NULL) from the caller. */
#define FAIL(exc, ...) do { PyErr_Format(exc, __VA_ARGS__); return 0; } while (0)

typedef struct { Py_buffer view[9]; int n; } Views; /* the buffers one call holds */

static void release(Views *v) { while (v->n) PyBuffer_Release(&v->view[--v->n]); }

/* Argument pos as a 1-d C-contiguous buffer of the given kind: 'd' float64,
 * 'w' writable float64, 'i' int32, 'l' int64.  NULL with an exception if not. */
static void *get(Views *v, PyObject *obj, char kind, Py_ssize_t pos, Py_ssize_t *len)
{
    Py_buffer *b = &v->view[v->n];
    if (PyObject_GetBuffer(obj, b, PyBUF_RECORDS_RO) < 0)
        return NULL;
    v->n++;
    const char *f = b->format, *want = kind == 'i' ? "int32" : kind == 'l' ? "int64" : "float64";
    if (*f == '@' || *f == '=' || (*f == '<' && PY_LITTLE_ENDIAN))
        f++;
    if (!f[0] || f[1] || b->itemsize != (kind == 'i' ? 4 : 8) || !strchr(want[0] == 'f' ? "d" : "ilq", f[0]))
        FAIL(PyExc_TypeError, "argument %zd must be a buffer of %s, not format '%s'", pos, want, b->format);
    if (b->ndim != 1 || !PyBuffer_IsContiguous(b, 'C'))
        FAIL(PyExc_ValueError, "argument %zd must be 1-d and C-contiguous", pos);
    if (kind == 'w' && b->readonly)
        FAIL(PyExc_ValueError, "argument %zd must be writable", pos);
    *len = b->shape[0];
    return b->buf;
}

/* One buffer per letter of spec (see get), then the degree count if ndeg. */
static int parse(Views *v, const char *fn, PyObject *const *args, Py_ssize_t nargs, const char *spec,
                 void **p, Py_ssize_t *len, Py_ssize_t *ndeg)
{
    Py_ssize_t nbuf = (Py_ssize_t)strlen(spec), want = nbuf + (ndeg != NULL);
    if (nargs != want)
        FAIL(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", fn, want, nargs);
    for (Py_ssize_t i = 0; i < nbuf; i++)
        if (!(p[i] = get(v, args[i], spec[i], i, len + i)))
            return 0;
    return !ndeg || (*ndeg = PyNumber_AsSsize_t(args[nbuf], PyExc_OverflowError)) != -1 || !PyErr_Occurred();
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

/* mul(a, b, out, ti, tj, tk): out[tk] += a[ti] * b[tj] over the table. */
static PyObject *mul(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Views v = {.n = 0};
    void *p[6];
    Py_ssize_t n[6];
    PyObject *res = NULL;
    if (parse(&v, "mul", args, nargs, "ddwiii", p, n, NULL) && same_length(n + 3)) {
        const double *a = p[0], *b = p[1];
        double *out = p[2];
        const int32_t *ti = p[3], *tj = p[4], *tk = p[5];
        Py_ssize_t bad = -1;
        Py_BEGIN_ALLOW_THREADS
        for (Py_ssize_t m = 0; m < n[3]; m++) {
            size_t i = (size_t)ti[m], j = (size_t)tj[m], k = (size_t)tk[m];
            if (i >= (size_t)n[0] || j >= (size_t)n[1] || k >= (size_t)n[2]) {
                bad = m;
                break;
            }
            out[k] += a[i] * b[j];
        }
        Py_END_ALLOW_THREADS
        res = bad < 0 ? Py_NewRef(Py_None)
                      : PyErr_Format(PyExc_IndexError, "triple %zd indexes outside its arrays", bad);
    }
    release(&v);
    return res;
}

/* div(a, b, out, acc, ti, tj, tk, trip_off, pos_off, ndeg): out = a / b, and
 * sqrt_(a, out, acc, ti, tj, tk, trip_off, pos_off, ndeg): out = sqrt(a).
 * acc must arrive zeroed.  One recursion serves both: sqrt_'s b is out. */
static PyObject *recur(PyObject *const *args, Py_ssize_t nargs, int is_div)
{
    Views v = {.n = 0};
    void *p[9]; /* a, b, out, acc, ti, tj, tk, trip_off, pos_off */
    Py_ssize_t n[9], ndeg;
    PyObject *res = NULL;
    int s = !is_div; /* sqrt_ parses one slot up, then a moves down and b aliases out */
    if (!parse(&v, is_div ? "div" : "sqrt_", args, nargs, "ddwwiiill" + s, p + s, n + s, &ndeg))
        goto done;
    if (s)
        p[0] = p[1], n[0] = n[1], p[1] = p[2], n[1] = n[2];
    if (ndeg < 1 || n[0] < 1 || n[1] < 1 || n[2] < 1) {
        PyErr_SetString(PyExc_ValueError, "ndeg and the arrays a, b and out must be nonempty");
        goto done;
    }
    Py_ssize_t lpos = n[0] < n[2] ? n[0] : n[2];
    if (!same_length(n + 4) || !offsets_ok(p[7], n[7], ndeg, n[4], "trip_off") ||
        !offsets_ok(p[8], n[8], ndeg, lpos < n[3] ? lpos : n[3], "pos_off"))
        goto done;
    const double *a = p[0], *b = p[1];
    double *out = p[2], *acc = p[3];
    const int32_t *ti = p[4], *tj = p[5], *tk = p[6];
    const int64_t *toff = p[7], *poff = p[8];
    Py_ssize_t bad = -1;
    Py_BEGIN_ALLOW_THREADS
    double lead = is_div ? a[0] / b[0] : sqrt(a[0]);
    double denom = is_div ? b[0] : 2.0 * lead;
    out[0] = lead;
    for (Py_ssize_t d = 1; d < ndeg; d++) {
        for (int64_t m = toff[d]; m < toff[d + 1]; m++) {
            size_t i = (size_t)ti[m], j = (size_t)tj[m], k = (size_t)tk[m];
            if (i >= (size_t)n[2] || j >= (size_t)n[1] || k >= (size_t)n[3]) {
                bad = m;
                goto unlock;
            }
            acc[k] += b[j] * out[i];
        }
        for (int64_t q = poff[d]; q < poff[d + 1]; q++)
            out[q] = (a[q] - acc[q]) / denom;
    }
unlock:
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
