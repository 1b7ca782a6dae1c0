/* Breadth-first closure of n x n matrices over Z/m under right multiplication.

   A matrix is bit-packed into one 64-bit code, entries row-major in fields of
   bits(m - 1) bits each, so the queue and the set of codes seen are flat
   uint64_t arrays.  Shapes with n*n*bits(m - 1) > 63 are refused; closure.py
   sends them to the pure-Python engine (closure_py.py), which keeps the same
   contract with no size limit. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>    /* Python.h brings stdlib.h and string.h */

#define EMPTY UINT64_MAX    /* never a code: codes use at most 63 bits */

static uint64_t mix(uint64_t x)    /* splitmix64 finalizer */
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* Open-addressing set of codes: linear probing, a power-of-two number of
   slots, grown before it is 70% full. */
typedef struct { uint64_t *slots; size_t mask, size; } CodeSet;

static int set_alloc(CodeSet *s, size_t nslots)
{
    s->slots = malloc(nslots * sizeof(uint64_t));
    if (s->slots == NULL)
        return -1;
    memset(s->slots, 0xff, nslots * sizeof(uint64_t));    /* every slot EMPTY */
    s->mask = nslots - 1;
    return 0;
}

static int set_grow(CodeSet *s)
{
    CodeSet big;
    if (set_alloc(&big, 2 * (s->mask + 1)) < 0)
        return -1;
    for (size_t i = 0, j; i <= s->mask; i++) {
        if (s->slots[i] == EMPTY)
            continue;
        for (j = mix(s->slots[i]) & big.mask; big.slots[j] != EMPTY; j = (j + 1) & big.mask)
            ;
        big.slots[j] = s->slots[i];
    }
    free(s->slots);
    s->slots = big.slots;
    s->mask = big.mask;
    return 0;
}

/* 1 if code is new, 0 if it was already in the set, -1 if growing failed. */
static inline int set_add(CodeSet *s, uint64_t code)
{
    size_t j = mix(code) & s->mask;
    for (; s->slots[j] != EMPTY; j = (j + 1) & s->mask)
        if (s->slots[j] == code)
            return 0;
    s->slots[j] = code;
    if (++s->size * 10 >= (s->mask + 1) * 7 && set_grow(s) < 0)
        return -1;
    return 1;
}

/* a * b mod m for a, b < m <= 2^63 (n == 1), where a * b could pass 64 bits */
static uint64_t mulmod(uint64_t a, uint64_t b, uint64_t m)
{
    uint64_t r = 0;
    for (; b; b >>= 1, a = (a + a) % m)
        if (b & 1)
            r = (r + a) % m;
    return r;
}

/* The code of cur * h for n >= 2, where bits <= 15 keeps each sum below 2^32.
   Inlined, so the call with n == 2 gets its own unrolled copy. */
static inline uint64_t product(const uint32_t *cur, const uint64_t *h, int n, uint64_t m, int bits)
{
    uint64_t prod = 0;
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++) {
            uint32_t acc = 0;
            for (int k = 0; k < n; k++)
                acc += cur[i * n + k] * (uint32_t)h[k * n + j];
            prod |= (uint64_t)(acc % (uint32_t)m) << (bits * (i * n + j));
        }
    return prod;
}

/* Close the identity under right multiplication by the ngens generators in
   gen (row-major, entries below m).  *queue receives every code found, in
   discovery order.  Returns how many codes were seen, stopping with
   *truncated set once that passes cap, or -1 if memory runs out. */
static Py_ssize_t closure(const uint64_t *gen, Py_ssize_t ngens, int n, uint64_t m, int bits,
                          long long cap, uint64_t **queue, int *truncated)
{
    const uint64_t field = ((uint64_t)1 << bits) - 1;
    uint32_t cur[49];    /* n <= 7 */
    uint64_t code = 0;
    size_t tail = 1, qcap = 1024;
    CodeSet seen = {NULL, 0, 0};

    if ((*queue = malloc(qcap * sizeof(uint64_t))) == NULL || set_alloc(&seen, 1024) < 0)
        goto nomem;
    for (int i = 0; i < n; i++)
        code |= (uint64_t)(1 % m) << (bits * (i * n + i));
    (*queue)[0] = code;
    set_add(&seen, code);
    for (size_t head = 0; head < tail && !*truncated; head++) {
        code = (*queue)[head];
        for (int i = 0; i < n * n; i++)
            cur[i] = (uint32_t)((code >> (bits * i)) & field);
        for (Py_ssize_t g = 0; g < ngens; g++) {
            const uint64_t *h = gen + g * n * n;
            uint64_t prod = n == 1 ? mulmod(code, h[0], m)
                          : n == 2 ? product(cur, h, 2, m, bits) : product(cur, h, n, m, bits);
            int added = set_add(&seen, prod);
            if (added < 0)
                goto nomem;
            if (added == 0)
                continue;
            if ((long long)seen.size > cap) {
                *truncated = 1;
                break;
            }
            if (tail == qcap) {
                uint64_t *bigger = realloc(*queue, 2 * qcap * sizeof(uint64_t));
                if (bigger == NULL)
                    goto nomem;
                *queue = bigger;
                qcap *= 2;
            }
            (*queue)[tail++] = prod;
        }
    }
    free(seen.slots);
    return (Py_ssize_t)seen.size;
nomem:
    free(seen.slots);
    return -1;
}

/* Reduce every entry mod m with Python's %, so negative and unreduced
   entries land in [0, m) exactly as in the pure-Python engine. */
static int read_generators(PyObject *gens, PyObject *mobj, int nn, uint64_t *gen)
{
    for (Py_ssize_t g = 0; g < PySequence_Fast_GET_SIZE(gens); g++) {
        PyObject *row = PySequence_Fast(PySequence_Fast_GET_ITEM(gens, g),
                                        "each generator must be a sequence");
        if (row == NULL)
            return -1;
        if (PySequence_Fast_GET_SIZE(row) != nn) {
            Py_DECREF(row);
            PyErr_SetString(PyExc_ValueError, "each generator must have n*n entries");
            return -1;
        }
        for (int i = 0; i < nn; i++) {
            PyObject *r = PyNumber_Remainder(PySequence_Fast_GET_ITEM(row, i), mobj);
            gen[g * nn + i] = r ? PyLong_AsUnsignedLongLong(r) : (uint64_t)-1;
            Py_XDECREF(r);
            if (gen[g * nn + i] == (uint64_t)-1 && PyErr_Occurred()) {
                Py_DECREF(row);
                return -1;
            }
        }
        Py_DECREF(row);
    }
    return 0;
}

/* The first found codes of queue as a list of flat tuples. */
static PyObject *decode(const uint64_t *queue, Py_ssize_t found, int nn, int bits)
{
    const uint64_t field = ((uint64_t)1 << bits) - 1;
    PyObject *elements = PyList_New(found);
    for (Py_ssize_t e = 0; elements != NULL && e < found; e++) {
        PyObject *t = PyTuple_New(nn);
        if (t == NULL)
            Py_CLEAR(elements);
        else
            PyList_SET_ITEM(elements, e, t);
        for (int i = 0; elements != NULL && i < nn; i++) {
            PyObject *x = PyLong_FromUnsignedLongLong((queue[e] >> (bits * i)) & field);
            if (x == NULL)
                Py_CLEAR(elements);
            else
                PyTuple_SET_ITEM(t, i, x);
        }
    }
    return elements;
}

PyDoc_STRVAR(bfs_doc,
"bfs_closure_u64(gens, n, m, cap, keep_elements)\n--\n\n"
"Close the identity under right multiplication by the generators.\n\n"
"gens: list of flat n*n sequences of integers, reduced mod m here.\n"
"Returns (order, truncated, elements or None).  A closure cut short by the\n"
"cap reports order cap + 1 and no elements; elements are flat tuples in\n"
"discovery order.  Raises ValueError when n*n*bits(m-1) > 63.");

static PyObject *bfs_closure_u64(PyObject *self, PyObject *args)
{
    PyObject *gens, *mobj, *elements, *result = NULL;
    int n, keep, bits = 1, truncated = 0;
    long long cap;
    uint64_t *gen, *queue = NULL;

    if (!PyArg_ParseTuple(args, "OiOLp:bfs_closure_u64", &gens, &n, &mobj, &cap, &keep))
        return NULL;
    uint64_t m = PyLong_AsUnsignedLongLong(mobj);
    if (m == (uint64_t)-1 && PyErr_Occurred())
        return NULL;
    while (bits < 64 && ((m - 1) >> bits))
        bits++;
    if (n < 1 || n > 7 || n * n * bits > 63) {
        PyErr_SetString(PyExc_ValueError, "matrix does not fit in a 64-bit code");
        return NULL;
    }
    if ((gens = PySequence_Fast(gens, "gens must be a sequence")) == NULL)
        return NULL;
    Py_ssize_t ngens = PySequence_Fast_GET_SIZE(gens), found = -1;
    if ((gen = malloc((ngens * n * n + 1) * sizeof(uint64_t))) == NULL)
        PyErr_NoMemory();
    else if (read_generators(gens, mobj, n * n, gen) == 0
             && (found = closure(gen, ngens, n, m, bits, cap, &queue, &truncated)) < 0)
        PyErr_NoMemory();
    if (found >= 0) {
        elements = keep && !truncated ? decode(queue, found, n * n, bits) : Py_NewRef(Py_None);
        if (elements != NULL)
            result = Py_BuildValue("nNN", found, PyBool_FromLong(truncated), elements);
    }
    free(gen);
    free(queue);
    Py_DECREF(gens);
    return result;
}

static PyMethodDef methods[] = {
    {"bfs_closure_u64", bfs_closure_u64, METH_VARARGS, bfs_doc}, {NULL, NULL, 0, NULL}};
static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_closure", "Compiled BFS closure kernel over Z/m.", -1, methods};

PyMODINIT_FUNC PyInit__closure(void)
{
    return PyModule_Create(&module);
}
