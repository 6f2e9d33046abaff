/* Buf's byte kernels: libc's memmove, memcmp, memset and memcpy over
   ranges the OCaml side has checked.  None allocates or raises, so the
   externals are [@@noalloc]. */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#define AT(ba, off) ((unsigned char *)Caml_ba_data_val(ba) + Long_val(off))

value mpicd_buf_memmove(value s, value so, value d, value d_o, value len)
{
  memmove(AT(d, d_o), AT(s, so), Long_val(len));
  return Val_unit;
}

value mpicd_buf_memeq(value a, value ao, value b, value bo, value len)
{
  return Val_bool(memcmp(AT(a, ao), AT(b, bo), Long_val(len)) == 0);
}

value mpicd_buf_memset(value b, value off, value len, value c)
{
  memset(AT(b, off), Int_val(c), Long_val(len));
  return Val_unit;
}

value mpicd_buf_of_string(value s, value so, value d, value d_o, value len)
{
  memcpy(AT(d, d_o), String_val(s) + Long_val(so), Long_val(len));
  return Val_unit;
}

value mpicd_buf_to_bytes(value s, value so, value d, value d_o, value len)
{
  memcpy(Bytes_val(d) + Long_val(d_o), AT(s, so), Long_val(len));
  return Val_unit;
}
