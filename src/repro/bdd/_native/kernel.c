/* kernel.c — the native BDD kernel (backend name "native").
 *
 * A single self-contained translation unit compiled on demand by
 * repro.bdd._native.build (cc -O2 -fPIC -shared).  It owns the whole node
 * store: parallel (var, low, high) node arrays with terminals at ids 0/1,
 * per-variable open-addressed unique tables keyed by (low << 32) | high
 * with linear probing and tombstones, direct-mapped computed caches per
 * operation, the apply/quantify loops, garbage collection (mark from a
 * root array, tombstone sweep, deferred compaction with a dense old->new
 * remap) and in-place adjacent level swaps.  Python reads the rows
 * through read-only views of the node arrays (repro.bdd.native_backend).
 *
 * Bit-identity contract (enforced by the parity fuzz check and the
 * --native-backend regression gate): the *node-creation sequence* and the
 * *budget-abort point* are identical to the object and array kernels.
 * Both are determined purely by the traversal structure — low cofactor
 * fully before high, the exists/forall short-circuits, XOR's nested NOT
 * at the TRUE-cofactor sequence point, and the node-cap check performed
 * only when a genuinely new node is about to be created.  Computed-cache
 * policy (probe points, sizing, eviction) is free: a cache miss on an
 * already-computed subproblem only recomputes canonical intermediate
 * results that the unique tables dedupe, creating no new nodes.  The
 * machines below therefore probe at expand time (simpler than the array
 * kernel's deferred probes) without affecting parity.
 *
 * Budget aborts are reported by returning -1 through every machine; the
 * Python wrapper (repro.bdd.native_backend) raises ResourceLimitError,
 * exactly like the object kernel.  The partial rows stay in the store.
 *
 * Row-buffer lifetime: growing the node arrays allocates new buffers and
 * *retires* the old ones instead of freeing them; retired buffers are
 * freed by the next collection (nat_gc) or by nat_free.  Python's views
 * of an outgrown buffer therefore stay readable until it next calls
 * nat_gc, and it replaces them whenever a call reports a node count past
 * their length.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int32_t i32;
typedef int64_t i64;
typedef uint32_t u32;
typedef uint64_t u64;

#define FALSE_ID 0
#define TRUE_ID 1
#define TERMINAL_VAR (-1)
#define H1 0x9E3779B1ULL
#define H2 0x85EBCA77ULL
#define NO_CAP ((i64)1 << 62)
#define TOMB UINT64_MAX /* a swept unique-table slot; no (low, high) packs to it */

/* computed-table indices (order mirrors the Python _tables hot prefix) */
enum { T_NOT, T_AND, T_OR, T_XOR, T_EXISTS, T_ANDEX, T_ANDALL, T_RESTRICT,
       N_TABS };

/* ------------------------------------------------------------------ */
/* per-variable unique table                                           */
/* ------------------------------------------------------------------ */

typedef struct {
    u64 *keys; /* packed (low << 32) | high; 0 = never used (probes stop), */
    i32 *vals; /* TOMB = swept by a collection (probes continue past it)  */
    u64 mask;
    i64 size;  /* resident entries */
    i64 tombs; /* TOMB slots */
} UT;

/* ------------------------------------------------------------------ */
/* direct-mapped computed cache                                        */
/* ------------------------------------------------------------------ */

typedef struct {
    u64 *k1;  /* 0 = empty slot (every live key has a node id >= 2 in    */
    u64 *k2;  /* its top 32 bits, so 0 never collides with a real key)   */
    i32 *val;
    u64 mask;
    u64 max_slots;
    i64 count; /* live entries */
    i64 hits;
    i64 misses;
    i64 evictions;
} Cache;

/* ------------------------------------------------------------------ */
/* machine frames                                                      */
/* ------------------------------------------------------------------ */

typedef struct {
    i32 tag;
    i32 var;
    i32 f;
    i32 g;
    u64 k1;
    u64 k2;
    u64 slot;
} Frame;

enum { FR_EXPAND, FR_COMBINE, FR_AFTER_LOW, FR_COMBINE_OP };

typedef struct {
    i32 *var;
    i32 *low;
    i32 *high;
    i64 n;        /* node rows in use (terminals included)   */
    i64 cap;      /* allocated rows                          */
    i64 node_cap; /* abort threshold: creating row n > cap   */
    i64 max_nodes;  /* the budget (-1 = none)                */
    i64 dead_rows;  /* swept rows not yet compacted away     */
    i64 created;    /* lifetime node creations               */
    i64 live;       /* table-resident internal nodes         */
    i64 peak;       /* max of live since the last stats reset */
    /* outgrown row buffers, freed by the next nat_gc/nat_free */
    i32 **retired;
    int nretired;
    int retired_cap;
    int nvars;
    int vcap;
    UT *ut;       /* one per variable                        */
    i32 *v2l;     /* var -> level                            */
    i32 *l2v;     /* level -> var                            */
    Cache tabs[N_TABS];
    i64 cache_bound;
    /* quantification scratch: level membership bitmap       */
    unsigned char *qset;
    int qset_cap;
    /* reentrant machine scratch (frames + results)          */
    Frame *fs;
    i64 fs_cap;
    i64 fp;
    i32 *rs;
    i64 rs_cap;
    i64 rp;
} Mgr;

/* ------------------------------------------------------------------ */
/* small helpers                                                       */
/* ------------------------------------------------------------------ */

static u64 pow2_at_least(u64 n) {
    u64 p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

static void ut_init(UT *t, u64 capacity) {
    u64 slots = pow2_at_least(capacity < 8 ? 8 : capacity);
    t->keys = (u64 *)calloc(slots, sizeof(u64));
    t->vals = (i32 *)calloc(slots, sizeof(i32));
    t->mask = slots - 1;
    t->size = 0;
    t->tombs = 0;
}

static void ut_free(UT *t) {
    free(t->keys);
    free(t->vals);
    t->keys = NULL;
    t->vals = NULL;
}

static u64 ut_home(i32 low, i32 high, u64 mask) {
    return (((u64)(u32)low * H1) ^ (u32)high) & mask;
}

/* rehash the residents into `slots` fresh slots, dropping tombstones */
static void ut_rehash(UT *t, u64 slots) {
    u64 *nk = (u64 *)calloc(slots, sizeof(u64));
    i32 *nv = (i32 *)calloc(slots, sizeof(i32));
    u64 mask = slots - 1;
    for (u64 i = 0; i <= t->mask; i++) {
        u64 key = t->keys[i];
        if (!key || key == TOMB)
            continue;
        u64 j = ut_home((i32)(key >> 32), (i32)(key & 0xFFFFFFFFULL), mask);
        while (nk[j])
            j = (j + 1) & mask;
        nk[j] = key;
        nv[j] = t->vals[i];
    }
    free(t->keys);
    free(t->vals);
    t->keys = nk;
    t->vals = nv;
    t->mask = mask;
    t->tombs = 0;
}

/* count one more resident; mid-size tables quadruple at 2/3 load
 * (tombstones included), large tables double */
static void ut_count_insert(UT *t) {
    u64 slots = t->mask + 1;
    if ((++t->size + t->tombs) * 3 >= (i64)slots * 2)
        ut_rehash(t, slots << ((slots >= ((u64)1 << 16)) ? 1 : 2));
}

/* empty the table, sized for `count` entries; a table never shrinks */
static void ut_reset(UT *t, i64 count) {
    u64 slots = pow2_at_least((u64)(count * 2 < 8 ? 8 : count * 2));
    if (slots <= t->mask + 1) {
        memset(t->keys, 0, (t->mask + 1) * sizeof(u64));
    } else {
        ut_free(t);
        t->keys = (u64 *)calloc(slots, sizeof(u64));
        t->vals = (i32 *)calloc(slots, sizeof(i32));
        t->mask = slots - 1;
    }
    t->size = 0;
    t->tombs = 0;
}

/* insert a (low, high) -> id entry assumed absent, reusing a tombstone */
static void ut_insert(UT *t, i32 low, i32 high, i32 id) {
    u64 j = ut_home(low, high, t->mask);
    while (t->keys[j] && t->keys[j] != TOMB)
        j = (j + 1) & t->mask;
    if (t->keys[j] == TOMB)
        t->tombs--;
    t->keys[j] = ((u64)(u32)low << 32) | (u32)high;
    t->vals[j] = id;
    ut_count_insert(t);
}

/* the id stored for (low, high), or -1 */
static i32 ut_lookup(const UT *t, i32 low, i32 high) {
    u64 key = ((u64)(u32)low << 32) | (u32)high;
    for (u64 j = ut_home(low, high, t->mask);; j = (j + 1) & t->mask) {
        if (t->keys[j] == key)
            return t->vals[j];
        if (!t->keys[j])
            return -1;
    }
}

static void cache_init(Cache *c, i64 bound) {
    u64 max_slots = pow2_at_least((u64)(bound < 16 ? 16 : bound));
    if (max_slots > ((u64)1 << 18))
        max_slots = (u64)1 << 18;
    u64 slots = 1024;
    if (slots > max_slots)
        slots = max_slots;
    c->k1 = (u64 *)calloc(slots, sizeof(u64));
    c->k2 = (u64 *)calloc(slots, sizeof(u64));
    c->val = (i32 *)calloc(slots, sizeof(i32));
    c->mask = slots - 1;
    c->max_slots = max_slots;
    c->count = 0;
    c->hits = 0;
    c->misses = 0;
    c->evictions = 0;
}

static void cache_free(Cache *c) {
    free(c->k1);
    free(c->k2);
    free(c->val);
    c->k1 = NULL;
    c->k2 = NULL;
    c->val = NULL;
}

static void cache_clear(Cache *c) {
    memset(c->k1, 0, (c->mask + 1) * sizeof(u64));
    c->count = 0;
}

/* grow between top-level ops at 25% load, quadrupling, discarding the
 * resident entries — the array kernel's maybe_grow policy */
static void cache_maybe_grow(Cache *c) {
    u64 slots = c->mask + 1;
    if ((u64)c->count * 4 >= slots && slots < c->max_slots) {
        slots <<= 2;
        if (slots > c->max_slots)
            slots = c->max_slots;
        free(c->k1);
        free(c->k2);
        free(c->val);
        c->k1 = (u64 *)calloc(slots, sizeof(u64));
        c->k2 = (u64 *)calloc(slots, sizeof(u64));
        c->val = (i32 *)calloc(slots, sizeof(i32));
        c->mask = slots - 1;
        c->count = 0;
    }
}

static void cache_store(Cache *c, u64 slot, u64 k1, u64 k2, i32 r) {
    if (c->k1[slot] == 0)
        c->count++;
    else if (c->k1[slot] != k1 || c->k2[slot] != k2)
        c->evictions++;
    c->k1[slot] = k1;
    c->k2[slot] = k2;
    c->val[slot] = r;
}

/* ------------------------------------------------------------------ */
/* manager lifecycle                                                   */
/* ------------------------------------------------------------------ */

static void retire(Mgr *m, i32 *buf) {
    if (m->nretired == m->retired_cap) {
        m->retired_cap = m->retired_cap ? m->retired_cap * 2 : 8;
        m->retired =
            (i32 **)realloc(m->retired, m->retired_cap * sizeof(i32 *));
    }
    m->retired[m->nretired++] = buf;
}

static void free_retired(Mgr *m) {
    for (int i = 0; i < m->nretired; i++)
        free(m->retired[i]);
    m->nretired = 0;
}

/* a copy of the first n rows of `old` in a buffer of `cap` rows; `old`
 * is retired, not freed (see the row-buffer lifetime note above) */
static i32 *regrow(Mgr *m, i32 *old, i64 cap) {
    i32 *buf = (i32 *)malloc(cap * sizeof(i32));
    memcpy(buf, old, m->n * sizeof(i32));
    retire(m, old);
    return buf;
}

static void grow_nodes(Mgr *m) {
    i64 cap = m->cap * 2;
    m->var = regrow(m, m->var, cap);
    m->low = regrow(m, m->low, cap);
    m->high = regrow(m, m->high, cap);
    m->cap = cap;
}

static void set_node_cap(Mgr *m) {
    m->node_cap = m->max_nodes < 0 ? NO_CAP : m->max_nodes + m->dead_rows;
}

Mgr *nat_new(i64 max_nodes, i64 cache_bound) {
    Mgr *m = (Mgr *)calloc(1, sizeof(Mgr));
    m->cap = 1024;
    m->var = (i32 *)malloc(m->cap * sizeof(i32));
    m->low = (i32 *)malloc(m->cap * sizeof(i32));
    m->high = (i32 *)malloc(m->cap * sizeof(i32));
    /* terminals occupy ids 0 and 1 */
    m->var[0] = TERMINAL_VAR;
    m->low[0] = FALSE_ID;
    m->high[0] = FALSE_ID;
    m->var[1] = TERMINAL_VAR;
    m->low[1] = TRUE_ID;
    m->high[1] = TRUE_ID;
    m->n = 2;
    m->max_nodes = max_nodes < 0 ? -1 : max_nodes;
    set_node_cap(m);
    m->nvars = 0;
    m->vcap = 16;
    m->ut = (UT *)calloc(m->vcap, sizeof(UT));
    m->v2l = (i32 *)calloc(m->vcap, sizeof(i32));
    m->l2v = (i32 *)calloc(m->vcap, sizeof(i32));
    m->cache_bound = cache_bound;
    for (int t = 0; t < N_TABS; t++)
        cache_init(&m->tabs[t], cache_bound);
    m->qset_cap = 64;
    m->qset = (unsigned char *)calloc(m->qset_cap, 1);
    m->fs_cap = 1024;
    m->fs = (Frame *)malloc(m->fs_cap * sizeof(Frame));
    m->fp = 0;
    m->rs_cap = 1024;
    m->rs = (i32 *)malloc(m->rs_cap * sizeof(i32));
    m->rp = 0;
    return m;
}

void nat_free(Mgr *m) {
    if (!m)
        return;
    free(m->var);
    free(m->low);
    free(m->high);
    free_retired(m);
    free(m->retired);
    for (int v = 0; v < m->nvars; v++)
        ut_free(&m->ut[v]);
    free(m->ut);
    free(m->v2l);
    free(m->l2v);
    for (int t = 0; t < N_TABS; t++)
        cache_free(&m->tabs[t]);
    free(m->qset);
    free(m->fs);
    free(m->rs);
    free(m);
}

void nat_add_var(Mgr *m) {
    if (m->nvars == m->vcap) {
        int vcap = m->vcap * 2;
        m->ut = (UT *)realloc(m->ut, vcap * sizeof(UT));
        m->v2l = (i32 *)realloc(m->v2l, vcap * sizeof(i32));
        m->l2v = (i32 *)realloc(m->l2v, vcap * sizeof(i32));
        memset(m->ut + m->vcap, 0, (vcap - m->vcap) * sizeof(UT));
        m->vcap = vcap;
    }
    int var = m->nvars++;
    ut_init(&m->ut[var], 8);
    /* fresh vars enter at the bottom level */
    m->v2l[var] = var;
    m->l2v[var] = var;
    if (m->nvars > m->qset_cap) {
        int cap = m->qset_cap * 2;
        m->qset = (unsigned char *)realloc(m->qset, cap);
        memset(m->qset + m->qset_cap, 0, cap - m->qset_cap);
        m->qset_cap = cap;
    }
}

i64 nat_num_nodes(Mgr *m) { return m->n; }

/* the current row buffers (var, low, high) and their length in rows */
i64 nat_rows(Mgr *m, i32 **out) {
    out[0] = m->var;
    out[1] = m->low;
    out[2] = m->high;
    return m->cap;
}

void nat_invalidate_caches(Mgr *m) {
    for (int t = 0; t < N_TABS; t++)
        cache_clear(&m->tabs[t]);
}

/* stats layout: per table [hits, misses, evictions, entries] — absolute
 * monotone values (entries excepted), read by the Python cache views —
 * then [nodes created, live, peak live] at STAT_NODES */
#define STAT_NODES (N_TABS * 4)
void nat_read_stats(Mgr *m, i64 *out) {
    for (int t = 0; t < N_TABS; t++) {
        out[t * 4 + 0] = m->tabs[t].hits;
        out[t * 4 + 1] = m->tabs[t].misses;
        out[t * 4 + 2] = m->tabs[t].evictions;
        out[t * 4 + 3] = m->tabs[t].count;
    }
    out[STAT_NODES + 0] = m->created;
    out[STAT_NODES + 1] = m->live;
    out[STAT_NODES + 2] = m->peak;
}

/* zero the cache counters; the peak restarts from the live count */
void nat_reset_stats(Mgr *m) {
    for (int t = 0; t < N_TABS; t++) {
        m->tabs[t].hits = 0;
        m->tabs[t].misses = 0;
        m->tabs[t].evictions = 0;
    }
    m->peak = m->live;
}

/* resident nodes per variable (its unique-table size) */
void nat_var_sizes(Mgr *m, i64 *out) {
    for (int v = 0; v < m->nvars; v++)
        out[v] = m->ut[v].size;
}

/* ------------------------------------------------------------------ */
/* node construction                                                   */
/* ------------------------------------------------------------------ */

static i64 mk(Mgr *m, i32 var, i32 low, i32 high) {
    if (low == high)
        return low;
    UT *t = &m->ut[var];
    u64 key = ((u64)(u32)low << 32) | (u32)high;
    u64 mask = t->mask;
    u64 j = ut_home(low, high, mask);
    for (;;) {
        u64 s = t->keys[j];
        if (s == key)
            return t->vals[j];
        if (s == 0)
            break; /* a tombstone is passed like any other key */
        j = (j + 1) & mask;
    }
    /* the budget check runs only when a new node is about to be created
     * — the same sequence point as the object/array kernels, which is
     * what makes the abort visit bit-identical */
    if (m->n > m->node_cap)
        return -1;
    if (m->n == m->cap)
        grow_nodes(m);
    i32 id = (i32)m->n++;
    m->var[id] = var;
    m->low[id] = low;
    m->high[id] = high;
    t->keys[j] = key;
    t->vals[j] = id;
    ut_count_insert(t);
    m->created++;
    if (++m->live > m->peak)
        m->peak = m->live;
    return id;
}

/* ------------------------------------------------------------------ */
/* machine scratch                                                     */
/* ------------------------------------------------------------------ */

static Frame *fpush(Mgr *m) {
    if (m->fp == m->fs_cap) {
        m->fs_cap *= 2;
        m->fs = (Frame *)realloc(m->fs, m->fs_cap * sizeof(Frame));
    }
    return &m->fs[m->fp++];
}

static void rpush(Mgr *m, i32 v) {
    if (m->rp == m->rs_cap) {
        m->rs_cap *= 2;
        m->rs = (i32 *)realloc(m->rs, m->rs_cap * sizeof(i32));
    }
    m->rs[m->rp++] = v;
}

/* ------------------------------------------------------------------ */
/* NOT                                                                 */
/* ------------------------------------------------------------------ */

static i64 do_not(Mgr *m) /* operand pre-pushed as an EXPAND frame */;

static i64 apply_not(Mgr *m, i32 f) {
    if (f <= TRUE_ID)
        return 1 - f;
    Frame *fr = fpush(m);
    fr->tag = FR_EXPAND;
    fr->f = f;
    return do_not(m);
}

static i64 do_not(Mgr *m) {
    i64 f_base = m->fp - 1;
    i64 r_base = m->rp;
    Cache *c = &m->tabs[T_NOT];
    while (m->fp > f_base) {
        Frame fr = m->fs[--m->fp];
        if (fr.tag == FR_EXPAND) {
            i32 f = fr.f;
            if (f <= TRUE_ID) {
                rpush(m, (i32)(1 - f));
                continue;
            }
            u64 slot = ((u64)(u32)f * H1) & c->mask;
            if (c->k1[slot] == (u64)(u32)f) {
                c->hits++;
                rpush(m, c->val[slot]);
                continue;
            }
            c->misses++;
            Frame *cf = fpush(m);
            cf->tag = FR_COMBINE;
            cf->var = m->var[f];
            cf->k1 = (u64)(u32)f;
            cf->slot = slot;
            Frame *hf = fpush(m);
            hf->tag = FR_EXPAND;
            hf->f = m->high[f];
            Frame *lf = fpush(m);
            lf->tag = FR_EXPAND;
            lf->f = m->low[f];
        } else {
            i32 high = m->rs[--m->rp];
            i32 low = m->rs[m->rp - 1];
            i64 r = (low == high) ? low : mk(m, fr.var, low, high);
            if (r < 0)
                goto abort;
            m->rs[m->rp - 1] = (i32)r;
            /* the slot may have been repopulated by the subtree; the
             * store-time key check keeps the eviction count honest */
            if (c->k1[fr.slot] == fr.k1)
                c->val[fr.slot] = (i32)r;
            else
                cache_store(c, fr.slot, fr.k1, 0, (i32)r);
        }
    }
    return m->rs[--m->rp];
abort:
    m->fp = f_base;
    m->rp = r_base;
    return -1;
}

/* ------------------------------------------------------------------ */
/* binary apply: AND / OR / XOR                                        */
/* ------------------------------------------------------------------ */

static i64 apply2(Mgr *m, int op, i32 f0_, i32 g0_) {
    Cache *c = &m->tabs[op == T_AND ? T_AND : (op == T_OR ? T_OR : T_XOR)];
    i64 f_base = m->fp;
    i64 r_base = m->rp;
    Frame *root = fpush(m);
    root->tag = FR_EXPAND;
    root->f = f0_;
    root->g = g0_;
    /* NB: m->var / m->low / m->high are re-read through m every time —
     * mk() may move the node arrays to new buffers mid-loop */
    i32 *v2l = m->v2l;
    while (m->fp > f_base) {
        Frame fr = m->fs[--m->fp];
        if (fr.tag == FR_EXPAND) {
            i32 f = fr.f;
            i32 g = fr.g;
            /* terminal rules — the object kernel's, verbatim */
            if (f == g) {
                rpush(m, op == T_XOR ? FALSE_ID : f);
                continue;
            }
            if (f > g) {
                i32 t = f;
                f = g;
                g = t;
            }
            if (f == FALSE_ID) {
                rpush(m, op == T_AND ? FALSE_ID : g);
                continue;
            }
            if (f == TRUE_ID) {
                if (op == T_AND) {
                    rpush(m, g);
                } else if (op == T_OR) {
                    rpush(m, TRUE_ID);
                } else {
                    /* XOR: ¬g runs now — the same sequence point as the
                     * recursive kernel's self._not(g) call */
                    i64 r = apply_not(m, g);
                    if (r < 0)
                        goto abort;
                    rpush(m, (i32)r);
                }
                continue;
            }
            u64 k1 = ((u64)(u32)f << 32) | (u32)g;
            u64 slot = (((u64)(u32)f * H1) ^ (u32)g) & c->mask;
            if (c->k1[slot] == k1) {
                c->hits++;
                rpush(m, c->val[slot]);
                continue;
            }
            c->misses++;
            i32 lf = v2l[m->var[f]];
            i32 lg = v2l[m->var[g]];
            i32 var, fl, fh, gl, gh;
            if (lf <= lg) {
                var = m->var[f];
                fl = m->low[f];
                fh = m->high[f];
            } else {
                var = m->var[g];
                fl = fh = f;
            }
            if (lg <= lf) {
                gl = m->low[g];
                gh = m->high[g];
            } else {
                gl = gh = g;
            }
            Frame *cf = fpush(m);
            cf->tag = FR_COMBINE;
            cf->var = var;
            cf->k1 = k1;
            cf->slot = slot;
            Frame *hf = fpush(m);
            hf->tag = FR_EXPAND;
            hf->f = fh;
            hf->g = gh;
            Frame *lo = fpush(m);
            lo->tag = FR_EXPAND;
            lo->f = fl;
            lo->g = gl;
        } else {
            i32 high = m->rs[--m->rp];
            i32 low = m->rs[m->rp - 1];
            i64 r = (low == high) ? low : mk(m, fr.var, low, high);
            if (r < 0)
                goto abort;
            m->rs[m->rp - 1] = (i32)r;
            if (c->k1[fr.slot] == fr.k1)
                c->val[fr.slot] = (i32)r;
            else
                cache_store(c, fr.slot, fr.k1, 0, (i32)r);
        }
    }
    return m->rs[--m->rp];
abort:
    m->fp = f_base;
    m->rp = r_base;
    return -1;
}

/* ------------------------------------------------------------------ */
/* EXISTS (levels passed as a sorted array; lid is the Python-interned  */
/* identity of the level tuple, used only for cache keying)            */
/* ------------------------------------------------------------------ */

/* The qset bitmap and max_level are set by the top-level entry points
 * (nat_exists / nat_and_exists / nat_and_forall) and shared by the
 * nested machines, mirroring the closure state of the Python kernels. */

static i64 do_exists(Mgr *m, i32 root, i32 max_level, u64 lid) {
    if (root <= TRUE_ID)
        return root;
    Cache *c = &m->tabs[T_EXISTS];
    i64 f_base = m->fp;
    i64 r_base = m->rp;
    Frame *rf = fpush(m);
    rf->tag = FR_EXPAND;
    rf->f = root;
    i32 *v2l = m->v2l;
    while (m->fp > f_base) {
        Frame fr = m->fs[--m->fp];
        if (fr.tag == FR_EXPAND) {
            i32 f = fr.f;
            if (f <= TRUE_ID) {
                rpush(m, f);
                continue;
            }
            i32 flevel = v2l[m->var[f]];
            if (flevel > max_level) {
                rpush(m, f); /* below every quantified level */
                continue;
            }
            u64 k1 = ((u64)(u32)f << 32) | lid;
            u64 slot = (((u64)(u32)f * H1) ^ lid) & c->mask;
            if (c->k1[slot] == k1) {
                c->hits++;
                rpush(m, c->val[slot]);
                continue;
            }
            c->misses++;
            Frame *af = fpush(m);
            af->tag = FR_AFTER_LOW;
            af->f = f;
            af->var = m->var[f];
            af->g = m->qset[flevel]; /* quantified? */
            af->k1 = k1;
            af->slot = slot;
            Frame *lf = fpush(m);
            lf->tag = FR_EXPAND;
            lf->f = m->low[f];
        } else if (fr.tag == FR_AFTER_LOW) {
            i32 low = m->rs[m->rp - 1];
            if (fr.g) {
                /* ∃x.f = f0 ∨ f1: a TRUE cofactor decides immediately */
                if (low == TRUE_ID) {
                    cache_store(c, fr.slot, fr.k1, 0, TRUE_ID);
                    continue; /* rs top already TRUE */
                }
                Frame *cf = fpush(m);
                cf->tag = FR_COMBINE_OP;
                cf->k1 = fr.k1;
                cf->slot = fr.slot;
                Frame *hf = fpush(m);
                hf->tag = FR_EXPAND;
                hf->f = m->high[fr.f];
            } else {
                Frame *cf = fpush(m);
                cf->tag = FR_COMBINE;
                cf->var = fr.var;
                cf->k1 = fr.k1;
                cf->slot = fr.slot;
                Frame *hf = fpush(m);
                hf->tag = FR_EXPAND;
                hf->f = m->high[fr.f];
            }
        } else if (fr.tag == FR_COMBINE_OP) {
            i32 high = m->rs[--m->rp];
            i32 low = m->rs[m->rp - 1];
            i64 r = apply2(m, T_OR, low, high);
            if (r < 0)
                goto abort;
            m->rs[m->rp - 1] = (i32)r;
            if (c->k1[fr.slot] == fr.k1)
                c->val[fr.slot] = (i32)r;
            else
                cache_store(c, fr.slot, fr.k1, 0, (i32)r);
        } else {
            i32 high = m->rs[--m->rp];
            i32 low = m->rs[m->rp - 1];
            i64 r = (low == high) ? low : mk(m, fr.var, low, high);
            if (r < 0)
                goto abort;
            m->rs[m->rp - 1] = (i32)r;
            if (c->k1[fr.slot] == fr.k1)
                c->val[fr.slot] = (i32)r;
            else
                cache_store(c, fr.slot, fr.k1, 0, (i32)r);
        }
    }
    return m->rs[--m->rp];
abort:
    m->fp = f_base;
    m->rp = r_base;
    return -1;
}

/* ∀ levels . f = ¬∃ levels . ¬f — the object kernel's forall_one */
static i64 forall_one(Mgr *m, i32 f, i32 max_level, u64 lid) {
    i64 nf = apply_not(m, f);
    if (nf < 0)
        return -1;
    i64 e = do_exists(m, (i32)nf, max_level, lid);
    if (e < 0)
        return -1;
    return apply_not(m, (i32)e);
}

/* ------------------------------------------------------------------ */
/* fused AND-EXISTS / AND-FORALL                                       */
/* ------------------------------------------------------------------ */

static i64 do_and_quant(Mgr *m, int is_forall, i32 root_f, i32 root_g,
                        i32 max_level, u64 lid) {
    Cache *c = &m->tabs[is_forall ? T_ANDALL : T_ANDEX];
    int comb_op = is_forall ? T_AND : T_OR;
    i32 short_val = is_forall ? FALSE_ID : TRUE_ID;
    i64 f_base = m->fp;
    i64 r_base = m->rp;
    Frame *rf = fpush(m);
    rf->tag = FR_EXPAND;
    rf->f = root_f;
    rf->g = root_g;
    i32 *v2l = m->v2l;
    while (m->fp > f_base) {
        Frame fr = m->fs[--m->fp];
        if (fr.tag == FR_EXPAND) {
            i32 f = fr.f;
            i32 g = fr.g;
            if (f == FALSE_ID || g == FALSE_ID) {
                rpush(m, FALSE_ID);
                continue;
            }
            if (f == TRUE_ID || g == TRUE_ID || f == g) {
                i32 one = (f == TRUE_ID) ? g : f;
                i64 r = is_forall ? forall_one(m, one, max_level, lid)
                                  : do_exists(m, one, max_level, lid);
                if (r < 0)
                    goto abort;
                rpush(m, (i32)r);
                continue;
            }
            if (f > g) {
                i32 t = f;
                f = g;
                g = t;
            }
            i32 lf = v2l[m->var[f]];
            i32 lg = v2l[m->var[g]];
            i32 top = lf <= lg ? lf : lg;
            if (top > max_level) {
                i64 r = apply2(m, T_AND, f, g);
                if (r < 0)
                    goto abort;
                rpush(m, (i32)r);
                continue;
            }
            u64 k1 = ((u64)(u32)f << 32) | (u32)g;
            u64 slot =
                (((u64)(u32)f * H1) ^ ((u64)(u32)g * H2) ^ lid) & c->mask;
            if (c->k1[slot] == k1 && c->k2[slot] == lid) {
                c->hits++;
                rpush(m, c->val[slot]);
                continue;
            }
            c->misses++;
            i32 var, fl, fh, gl, gh;
            if (lf <= lg) {
                var = m->var[f];
                fl = m->low[f];
                fh = m->high[f];
            } else {
                var = m->var[g];
                fl = fh = f;
            }
            if (lg <= lf) {
                gl = m->low[g];
                gh = m->high[g];
            } else {
                gl = gh = g;
            }
            if (m->qset[top]) {
                Frame *af = fpush(m);
                af->tag = FR_AFTER_LOW;
                af->f = fh;
                af->g = gh;
                af->k1 = k1;
                af->k2 = lid;
                af->slot = slot;
            } else {
                Frame *cf = fpush(m);
                cf->tag = FR_COMBINE;
                cf->var = var;
                cf->k1 = k1;
                cf->k2 = lid;
                cf->slot = slot;
                Frame *hf = fpush(m);
                hf->tag = FR_EXPAND;
                hf->f = fh;
                hf->g = gh;
            }
            Frame *lo = fpush(m);
            lo->tag = FR_EXPAND;
            lo->f = fl;
            lo->g = gl;
        } else if (fr.tag == FR_AFTER_LOW) {
            i32 low = m->rs[m->rp - 1];
            if (low == short_val) {
                /* exists: TRUE decides; forall: FALSE decides */
                cache_store(c, fr.slot, fr.k1, fr.k2, short_val);
                continue;
            }
            Frame *cf = fpush(m);
            cf->tag = FR_COMBINE_OP;
            cf->k1 = fr.k1;
            cf->k2 = fr.k2;
            cf->slot = fr.slot;
            Frame *hf = fpush(m);
            hf->tag = FR_EXPAND;
            hf->f = fr.f;
            hf->g = fr.g;
        } else if (fr.tag == FR_COMBINE_OP) {
            i32 high = m->rs[--m->rp];
            i32 low = m->rs[m->rp - 1];
            i64 r = apply2(m, comb_op, low, high);
            if (r < 0)
                goto abort;
            m->rs[m->rp - 1] = (i32)r;
            if (c->k1[fr.slot] == fr.k1 && c->k2[fr.slot] == fr.k2)
                c->val[fr.slot] = (i32)r;
            else
                cache_store(c, fr.slot, fr.k1, fr.k2, (i32)r);
        } else {
            i32 high = m->rs[--m->rp];
            i32 low = m->rs[m->rp - 1];
            i64 r = (low == high) ? low : mk(m, fr.var, low, high);
            if (r < 0)
                goto abort;
            m->rs[m->rp - 1] = (i32)r;
            if (c->k1[fr.slot] == fr.k1 && c->k2[fr.slot] == fr.k2)
                c->val[fr.slot] = (i32)r;
            else
                cache_store(c, fr.slot, fr.k1, fr.k2, (i32)r);
        }
    }
    return m->rs[--m->rp];
abort:
    m->fp = f_base;
    m->rp = r_base;
    return -1;
}

/* ------------------------------------------------------------------ */
/* entry points                                                        */
/* ------------------------------------------------------------------ */

/* Ops return (num_nodes << 32) | result, so one FFI call tells the
 * wrapper both the result and whether its row views still cover every
 * node; a budget abort returns -1. */
static i64 pack(Mgr *m, i64 r) {
    if (r < 0)
        return -1;
    return (m->n << 32) | (u32)r;
}

i64 nat_mk(Mgr *m, i32 var, i32 low, i32 high) {
    return pack(m, mk(m, var, low, high));
}

i64 nat_not(Mgr *m, i32 f) {
    cache_maybe_grow(&m->tabs[T_NOT]);
    return pack(m, apply_not(m, f));
}

i64 nat_and(Mgr *m, i32 f, i32 g) {
    cache_maybe_grow(&m->tabs[T_AND]);
    return pack(m, apply2(m, T_AND, f, g));
}

i64 nat_or(Mgr *m, i32 f, i32 g) {
    cache_maybe_grow(&m->tabs[T_OR]);
    return pack(m, apply2(m, T_OR, f, g));
}

i64 nat_xor(Mgr *m, i32 f, i32 g) {
    cache_maybe_grow(&m->tabs[T_XOR]);
    cache_maybe_grow(&m->tabs[T_NOT]); /* XOR can nest NOT */
    return pack(m, apply2(m, T_XOR, f, g));
}

static i32 setup_levels(Mgr *m, const i32 *levels, i32 nlevels) {
    i32 max_level = levels[nlevels - 1];
    for (i32 i = 0; i < nlevels; i++)
        m->qset[levels[i]] = 1;
    return max_level;
}

static void clear_levels(Mgr *m, const i32 *levels, i32 nlevels) {
    for (i32 i = 0; i < nlevels; i++)
        m->qset[levels[i]] = 0;
}

i64 nat_exists(Mgr *m, i32 f, const i32 *levels, i32 nlevels, i64 lid) {
    cache_maybe_grow(&m->tabs[T_EXISTS]);
    cache_maybe_grow(&m->tabs[T_OR]);
    i32 max_level = setup_levels(m, levels, nlevels);
    i64 r = do_exists(m, f, max_level, (u64)lid);
    clear_levels(m, levels, nlevels);
    return pack(m, r);
}

i64 nat_and_exists(Mgr *m, i32 f, i32 g, const i32 *levels, i32 nlevels,
                   i64 lid) {
    cache_maybe_grow(&m->tabs[T_ANDEX]);
    cache_maybe_grow(&m->tabs[T_EXISTS]);
    cache_maybe_grow(&m->tabs[T_AND]);
    cache_maybe_grow(&m->tabs[T_OR]);
    i32 max_level = setup_levels(m, levels, nlevels);
    i64 r = do_and_quant(m, 0, f, g, max_level, (u64)lid);
    clear_levels(m, levels, nlevels);
    return pack(m, r);
}

i64 nat_and_forall(Mgr *m, i32 f, i32 g, const i32 *levels, i32 nlevels,
                   i64 lid) {
    cache_maybe_grow(&m->tabs[T_ANDALL]);
    cache_maybe_grow(&m->tabs[T_EXISTS]);
    cache_maybe_grow(&m->tabs[T_NOT]);
    cache_maybe_grow(&m->tabs[T_AND]);
    cache_maybe_grow(&m->tabs[T_OR]);
    i32 max_level = setup_levels(m, levels, nlevels);
    i64 r = do_and_quant(m, 1, f, g, max_level, (u64)lid);
    clear_levels(m, levels, nlevels);
    return pack(m, r);
}

/* ------------------------------------------------------------------ */
/* restrict (cofactor by a partial assignment)                         */
/* ------------------------------------------------------------------ */

/* Mirrors the object kernel's recursive _restrict exactly: skip
 * assignment entries above f's top level, follow the assigned branch
 * when f tests the assigned variable, else recurse both cofactors.
 * ``pairs`` is [var0, val0, var1, val1, ...] sorted by level; ``pid``
 * is the Python-interned identity of the pairs tuple (the cache key
 * component standing for the whole assignment). */
static i64 do_restrict(Mgr *m, const i32 *pairs, i32 npairs, u64 pid) {
    i64 f_base = m->fp - 1;
    i64 r_base = m->rp;
    Cache *c = &m->tabs[T_RESTRICT];
    while (m->fp > f_base) {
        Frame fr = m->fs[--m->fp];
        if (fr.tag == FR_EXPAND) {
            i32 f = fr.f;
            i32 start = fr.g;
            if (f <= TRUE_ID || start >= npairs) {
                rpush(m, f);
                continue;
            }
            u64 k1 = ((u64)(u32)f << 32) | (u32)start;
            u64 slot =
                (((u64)(u32)f * H1) ^ ((u64)(u32)start * H2) ^ pid) & c->mask;
            if (c->k1[slot] == k1 && c->k2[slot] == pid) {
                c->hits++;
                rpush(m, c->val[slot]);
                continue;
            }
            c->misses++;
            i32 flevel = m->v2l[m->var[f]];
            i32 i = start;
            while (i < npairs && m->v2l[pairs[2 * i]] < flevel)
                i++;
            if (i >= npairs) {
                cache_store(c, slot, k1, pid, f);
                rpush(m, f);
                continue;
            }
            i32 var = pairs[2 * i];
            i32 fvar = m->var[f];
            if (fvar == var) {
                /* tail case: the result of (branch, i+1) is also the
                 * result for this key — pass it through a store frame */
                Frame *cf = fpush(m);
                cf->tag = FR_AFTER_LOW;
                cf->k1 = k1;
                cf->k2 = pid;
                cf->slot = slot;
                Frame *bf = fpush(m);
                bf->tag = FR_EXPAND;
                bf->f = pairs[2 * i + 1] ? m->high[f] : m->low[f];
                bf->g = i + 1;
            } else {
                Frame *cf = fpush(m);
                cf->tag = FR_COMBINE;
                cf->var = fvar;
                cf->k1 = k1;
                cf->k2 = pid;
                cf->slot = slot;
                Frame *hf = fpush(m);
                hf->tag = FR_EXPAND;
                hf->f = m->high[f];
                hf->g = i;
                Frame *lf = fpush(m);
                lf->tag = FR_EXPAND;
                lf->f = m->low[f];
                lf->g = i;
            }
        } else if (fr.tag == FR_AFTER_LOW) {
            i32 r = m->rs[m->rp - 1];
            if (c->k1[fr.slot] == fr.k1 && c->k2[fr.slot] == fr.k2)
                c->val[fr.slot] = r;
            else
                cache_store(c, fr.slot, fr.k1, fr.k2, r);
        } else { /* FR_COMBINE */
            i32 high = m->rs[--m->rp];
            i32 low = m->rs[m->rp - 1];
            i64 r = (low == high) ? low : mk(m, fr.var, low, high);
            if (r < 0)
                goto abort;
            m->rs[m->rp - 1] = (i32)r;
            if (c->k1[fr.slot] == fr.k1 && c->k2[fr.slot] == fr.k2)
                c->val[fr.slot] = (i32)r;
            else
                cache_store(c, fr.slot, fr.k1, fr.k2, (i32)r);
        }
    }
    return m->rs[--m->rp];
abort:
    m->fp = f_base;
    m->rp = r_base;
    return -1;
}

i64 nat_restrict(Mgr *m, i32 f, const i32 *pairs, i32 npairs, i32 start,
                 i64 pid) {
    if (f <= TRUE_ID || start >= npairs)
        return pack(m, f);
    cache_maybe_grow(&m->tabs[T_RESTRICT]);
    Frame *fr = fpush(m);
    fr->tag = FR_EXPAND;
    fr->f = f;
    fr->g = start;
    return pack(m, do_restrict(m, pairs, npairs, (u64)pid));
}

/* ------------------------------------------------------------------ */
/* garbage collection                                                  */
/* ------------------------------------------------------------------ */

/* Rewrite the rows densely in id order (terminals stay put), writing the
 * old->new id map to remap (-1 for a dead row), and rebuild every unique
 * table from the dense rows. */
static void compact(Mgr *m, const unsigned char *marked, i32 *remap) {
    i64 n = m->n;
    i32 next = 0;
    for (i64 i = 0; i < n; i++)
        remap[i] = marked[i] ? next++ : -1;
    /* new ids never exceed old ones, so the rewrite runs in place */
    for (i64 i = 2; i < n; i++) {
        if (!marked[i])
            continue;
        i32 k = remap[i];
        m->var[k] = m->var[i];
        m->low[k] = remap[m->low[i]];
        m->high[k] = remap[m->high[i]];
    }
    m->n = next;
    m->dead_rows = 0;
    i64 *counts = (i64 *)calloc(m->nvars ? m->nvars : 1, sizeof(i64));
    for (i64 i = 2; i < next; i++)
        counts[m->var[i]]++;
    for (int v = 0; v < m->nvars; v++)
        ut_reset(&m->ut[v], counts[v]);
    free(counts);
    for (i64 i = 2; i < next; i++)
        ut_insert(&m->ut[m->var[i]], m->low[i], m->high[i], (i32)i);
}

/* Mark from the nroots external roots, tombstone every dead unique-table
 * entry and zero its row (ids untouched), and compact once the dead rows
 * are at least half the rows.  remap must hold nat_num_nodes() entries;
 * it is written only when the store compacts.  Returns
 * (reclaimed << 1) | compacted.  Drops the computed caches and frees the
 * retired row buffers. */
i64 nat_gc(Mgr *m, const i32 *roots, i64 nroots, i32 *remap) {
    i64 n = m->n;
    unsigned char *marked = (unsigned char *)calloc(n, 1);
    marked[FALSE_ID] = 1;
    marked[TRUE_ID] = 1;
    /* the result stack is idle between operations: reuse it as the
     * mark stack (terminals and zeroed dead rows are pre-marked, so
     * their children are never pushed) */
    i64 r_base = m->rp;
    for (i64 i = 0; i < nroots; i++)
        rpush(m, roots[i]);
    while (m->rp > r_base) {
        i32 f = m->rs[--m->rp];
        if (marked[f])
            continue;
        marked[f] = 1;
        if (!marked[m->low[f]])
            rpush(m, m->low[f]);
        if (!marked[m->high[f]])
            rpush(m, m->high[f]);
    }
    i64 reclaimed = 0;
    for (int v = 0; v < m->nvars; v++) {
        UT *t = &m->ut[v];
        if (!t->size)
            continue;
        i64 dead = 0;
        for (u64 j = 0; j <= t->mask; j++) {
            u64 key = t->keys[j];
            if (!key || key == TOMB || marked[t->vals[j]])
                continue;
            i32 id = t->vals[j];
            t->keys[j] = TOMB;
            m->var[id] = TERMINAL_VAR;
            m->low[id] = FALSE_ID;
            m->high[id] = FALSE_ID;
            dead++;
        }
        if (dead) {
            t->size -= dead;
            t->tombs += dead;
            reclaimed += dead;
            /* past a quarter tombstones, rehash at the same capacity */
            if (t->tombs * 4 > (i64)(t->mask + 1))
                ut_rehash(t, t->mask + 1);
        }
    }
    m->live -= reclaimed;
    m->dead_rows += reclaimed;
    int compacted = m->dead_rows * 2 >= n;
    if (compacted)
        compact(m, marked, remap);
    free(marked);
    /* the budget counts live rows: dead rows still in the arrays extend
     * the cap, as the object kernel's free list does */
    set_node_cap(m);
    nat_invalidate_caches(m);
    free_retired(m);
    return (reclaimed << 1) | compacted;
}

/* ------------------------------------------------------------------ */
/* adjacent level swap                                                 */
/* ------------------------------------------------------------------ */

/* Swap the variables at `level` and `level + 1` in place: the upper
 * nodes that test the lower variable are rewritten under their own ids,
 * in the upper table's slot order; no other node moves.  Returns
 * num_nodes << 32, -1 on a budget abort or -2 when a rewritten node
 * collides with another lower-table entry (the store is then corrupt).
 * Drops the computed caches. */
i64 nat_swap_levels(Mgr *m, i32 level) {
    i32 upper = m->l2v[level];
    i32 lower = m->l2v[level + 1];
    UT *ut = &m->ut[upper];
    UT *lt = &m->ut[lower];
    i32 *moved = (i32 *)malloc((ut->size + 1) * sizeof(i32));
    i32 *kept = (i32 *)malloc((ut->size + 1) * sizeof(i32));
    i64 nmoved = 0, nkept = 0;
    for (u64 j = 0; j <= ut->mask; j++) {
        u64 key = ut->keys[j];
        if (!key || key == TOMB)
            continue;
        i32 id = ut->vals[j];
        if (m->var[m->low[id]] == lower || m->var[m->high[id]] == lower)
            moved[nmoved++] = id;
        else
            kept[nkept++] = id;
    }
    if (nmoved) {
        ut_reset(ut, nkept);
        for (i64 i = 0; i < nkept; i++)
            ut_insert(ut, m->low[kept[i]], m->high[kept[i]], kept[i]);
    }
    m->live -= nmoved;
    /* commit the level exchange before mk builds the new upper nodes */
    m->l2v[level] = lower;
    m->l2v[level + 1] = upper;
    m->v2l[upper] = level + 1;
    m->v2l[lower] = level;
    i64 status = 0;
    for (i64 i = 0; i < nmoved; i++) {
        i32 id = moved[i];
        i32 f0 = m->low[id], f1 = m->high[id];
        i32 f00 = f0, f01 = f0, f10 = f1, f11 = f1;
        if (m->var[f0] == lower) {
            f00 = m->low[f0];
            f01 = m->high[f0];
        }
        if (m->var[f1] == lower) {
            f10 = m->low[f1];
            f11 = m->high[f1];
        }
        i64 nl = mk(m, upper, f00, f10);
        i64 nh = nl < 0 ? -1 : mk(m, upper, f01, f11);
        if (nh < 0) {
            status = -1;
            break;
        }
        m->var[id] = lower;
        m->low[id] = (i32)nl;
        m->high[id] = (i32)nh;
        i32 existing = ut_lookup(lt, (i32)nl, (i32)nh);
        if (existing >= 0 && existing != id) {
            status = -2;
            break;
        }
        if (existing < 0)
            ut_insert(lt, (i32)nl, (i32)nh, id);
        if (++m->live > m->peak)
            m->peak = m->live;
    }
    free(moved);
    free(kept);
    nat_invalidate_caches(m);
    return status < 0 ? status : m->n << 32;
}

/* a tiny self-check hook so the loader can verify the ABI */
i64 nat_abi_version(void) { return 3; }
